package trace

import (
	"math/rand"
	"strings"
	"testing"

	"listcolor/internal/graph"
	"listcolor/internal/linial"
	"listcolor/internal/sim"
)

func recordLinialRun(t *testing.T) *Recorder {
	t.Helper()
	rec := &Recorder{}
	g := graph.RandomRegular(128, 6, rand.New(rand.NewSource(42)))
	if _, err := linial.ColorFromIDs(g, rec.Attach(sim.Config{})); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderCapturesRounds(t *testing.T) {
	rec := recordLinialRun(t)
	if len(rec.rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
	for i, rs := range rec.rounds {
		if rs.Round != i+1 {
			t.Errorf("round %d recorded as %d", i+1, rs.Round)
		}
	}
}

func TestAttachChains(t *testing.T) {
	rec := &Recorder{}
	called := 0
	cfg := rec.Attach(sim.Config{OnRound: func(sim.RoundStats) { called++ }})
	g := graph.Ring(16)
	if _, err := linial.ColorFromIDs(g, cfg); err != nil {
		t.Fatal(err)
	}
	if called != len(rec.rounds) || called == 0 {
		t.Errorf("chained hook called %d times, recorder has %d", called, len(rec.rounds))
	}
}

func TestTimelineRendering(t *testing.T) {
	rec := recordLinialRun(t)
	out := rec.Timeline(40)
	for _, want := range []string{"rounds:", "active", "messages", "bits"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Downsampling: sparkline no wider than requested.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") {
			inner := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
			if len([]rune(inner)) > 40 {
				t.Errorf("sparkline wider than 40: %d", len([]rune(inner)))
			}
		}
	}
}

func TestTimelineEmpty(t *testing.T) {
	rec := &Recorder{}
	if !strings.Contains(rec.Timeline(10), "no rounds") {
		t.Error("empty timeline message missing")
	}
}

func TestSparkShapes(t *testing.T) {
	if got := spark([]int{0, 0, 0}); got != "▁▁▁" {
		t.Errorf("all-zero spark = %q", got)
	}
	got := spark([]int{0, 4, 8})
	runes := []rune(got)
	if len(runes) != 3 || runes[0] != '▁' || runes[2] != '█' {
		t.Errorf("spark([0,4,8]) = %q", got)
	}
}
