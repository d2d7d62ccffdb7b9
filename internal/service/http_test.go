package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"listcolor/internal/coloring"
	"listcolor/internal/graph"
)

func postUpdates(t *testing.T, url string, ops []Op) (UpdateResponse, int) {
	t.Helper()
	body, err := json.Marshal(UpdateRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestHTTPEndpoints(t *testing.T) {
	s := mustService(t, graph.StreamedRing(16), coloring.FullPalette(16, 4, 0), Options{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	rep, code := postUpdates(t, srv.URL, []Op{
		{Action: OpAddEdge, U: 0, V: 8},
		{Action: OpAddNode},
	})
	if code != http.StatusOK || rep.Applied != 2 || rep.Version != 1 || rep.Error != "" {
		t.Fatalf("updates: code %d, resp %+v", code, rep)
	}
	if len(rep.NewNodes) != 1 || rep.NewNodes[0] != 16 {
		t.Fatalf("NewNodes = %v", rep.NewNodes)
	}

	var cr colorResponse
	if code := getJSON(t, srv.URL+"/v1/color/8", &cr); code != http.StatusOK {
		t.Fatalf("color: %d", code)
	}
	if cr.Node != 8 || cr.Version != 1 || cr.Color < 0 || cr.Color >= 4 {
		t.Fatalf("color resp %+v", cr)
	}

	var csr colorsResponse
	if code := getJSON(t, srv.URL+"/v1/colors?nodes=0,8,16", &csr); code != http.StatusOK {
		t.Fatalf("colors: %d", code)
	}
	if len(csr.Colors) != 3 || csr.Colors[0] == csr.Colors[1] {
		t.Fatalf("colors resp %+v (edge {0,8} monochromatic?)", csr)
	}

	var st Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Version != 1 || st.Nodes != 17 || st.Updates != 2 {
		t.Fatalf("stats resp %+v", st)
	}

	// Error surface.
	var e map[string]string
	if code := getJSON(t, srv.URL+"/v1/color/99", &e); code != http.StatusNotFound {
		t.Fatalf("unknown node: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/color/zap", &e); code != http.StatusBadRequest {
		t.Fatalf("junk node: %d", code)
	}
	// No nodes param: the full streamed dump.
	var dump struct {
		Version uint64 `json:"version"`
		N       int    `json:"n"`
		Colors  []int  `json:"colors"`
	}
	if code := getJSON(t, srv.URL+"/v1/colors", &dump); code != http.StatusOK {
		t.Fatalf("full dump: %d", code)
	}
	if dump.Version != 1 || dump.N != 17 || len(dump.Colors) != 17 {
		t.Fatalf("full dump resp version=%d n=%d len=%d", dump.Version, dump.N, len(dump.Colors))
	}
	snapColors := s.Snapshot().Colors
	for i, c := range dump.Colors {
		if c != snapColors[i] {
			t.Fatalf("dump color[%d] = %d, snapshot has %d", i, c, snapColors[i])
		}
	}
	if code := getJSON(t, srv.URL+"/v1/colors?nodes=1,zap", &e); code != http.StatusBadRequest {
		t.Fatalf("junk nodes param: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/colors?nodes=1,99", &e); code != http.StatusNotFound {
		t.Fatalf("unknown in nodes param: %d", code)
	}

	resp, err := http.Post(srv.URL+"/v1/updates", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}

	// Anything but whitespace after the object rejects the whole body:
	// neither a second batch nor trailing garbage, and nothing applies.
	before := s.Stats()
	for _, body := range []string{
		`{"ops":[{"action":"add_edge","u":3,"v":11}]}{"ops":[{"action":"add_edge","u":4,"v":12}]}`,
		`{"ops":[]} garbage`,
	} {
		resp, err := http.Post(srv.URL+"/v1/updates", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trailing data %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if after := s.Stats(); after.Version != before.Version || after.Batches != before.Batches {
		t.Fatalf("trailing-data bodies applied: version %d -> %d", before.Version, after.Version)
	}
	if s.HasEdge(3, 11) || s.HasEdge(4, 12) {
		t.Fatal("trailing-data body applied an edge")
	}
	resp, err = http.Post(srv.URL+"/v1/updates", "application/json", strings.NewReader("{\"ops\":[]}\n\t "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200", resp.StatusCode)
	}

	rep, code = postUpdates(t, srv.URL, []Op{
		{Action: OpAddEdge, U: 1, V: 9},
		{Action: OpAddEdge, U: 2, V: 2},
	})
	if code != http.StatusBadRequest || rep.Applied != 1 || rep.Error == "" {
		t.Fatalf("rejected batch: code %d, resp %+v", code, rep)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatal(err)
	}
}

// discardWriter is an http.ResponseWriter that counts bytes.
type discardWriter struct {
	header http.Header
	n      int64
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestStreamAllColorsAllocationBounded pins the full-dump satellite:
// streaming a million-color snapshot allocates O(1) — one scratch
// chunk plus header bookkeeping — not an O(n) intermediate document.
func TestStreamAllColorsAllocationBounded(t *testing.T) {
	colors := make([]int, 1<<20)
	for i := range colors {
		colors[i] = i % 7
	}
	snap := &Snapshot{Version: 42, Colors: colors}
	w := &discardWriter{}
	allocs := testing.AllocsPerRun(5, func() {
		w.header = http.Header{}
		w.n = 0
		streamAllColors(w, snap)
	})
	if allocs > 32 {
		t.Fatalf("streaming dump allocates %.0f/op — O(n) buffering crept back in", allocs)
	}
	if w.n < 1<<20 { // at least one byte per color
		t.Fatalf("dump wrote %d bytes for %d colors", w.n, len(colors))
	}

	// And the stream is valid JSON that round-trips the snapshot.
	var buf bytes.Buffer
	rec := httptest.NewRecorder()
	rec.Body = &buf
	streamAllColors(rec, &Snapshot{Version: 3, Colors: []int{4, 0, 2}})
	var dump struct {
		Version uint64 `json:"version"`
		N       int    `json:"n"`
		Colors  []int  `json:"colors"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if dump.Version != 3 || dump.N != 3 || !reflect.DeepEqual(dump.Colors, []int{4, 0, 2}) {
		t.Fatalf("dump round-trip %+v", dump)
	}
}

// TestHTTPConcurrentReads drives lock-free snapshot reads through the
// real HTTP stack while a writer applies batches — the transport-level
// twin of TestServiceConcurrentReadWrite, and the shape the p99
// read-latency benchmark measures.
func TestHTTPConcurrentReads(t *testing.T) {
	const n = 500
	s := mustService(t, graph.StreamedRing(n), coloring.FullPalette(n, 5, 0), Options{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := srv.Client()
			for i := 0; !stop.Load(); i++ {
				resp, err := client.Get(fmt.Sprintf("%s/v1/color/%d", srv.URL, (r*131+i)%n))
				if err != nil {
					errs <- err
					return
				}
				var cr colorResponse
				err = json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if cr.Color < 0 || cr.Color >= 5 {
					errs <- fmt.Errorf("reader %d: color %d out of palette", r, cr.Color)
					return
				}
			}
		}(r)
	}

	for b := 0; b < 30; b++ {
		u := (b * 37) % n
		v := (u + n/2) % n
		var ops []Op
		if s.ov.HasEdge(u, v) {
			ops = append(ops, Op{Action: OpRemoveEdge, U: u, V: v})
		} else {
			ops = append(ops, Op{Action: OpAddEdge, U: u, V: v})
		}
		if rep, code := postUpdates(t, srv.URL, ops); code != http.StatusOK || !rep.Converged {
			t.Fatalf("batch %d: code %d rep %+v", b, code, rep)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.ValidateState(); err != nil {
		t.Fatal(err)
	}
}
