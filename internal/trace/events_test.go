package trace

import (
	"reflect"
	"strings"
	"testing"
)

func TestAnnotateAndEvents(t *testing.T) {
	var rec Recorder
	if got := rec.Events(); len(got) != 0 {
		t.Fatalf("fresh recorder has %d events", len(got))
	}
	rec.Annotate(2, "crash-stop", "node 3 crashes")
	rec.Annotate(1, "corrupt", "all edges at rate 0.10")
	rec.Annotate(9, "phase", "") // detail optional, out-of-range round legal
	evs := rec.Events()
	want := []Event{
		{Round: 2, Kind: "crash-stop", Detail: "node 3 crashes"},
		{Round: 1, Kind: "corrupt", Detail: "all edges at rate 0.10"},
		{Round: 9, Kind: "phase"},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Errorf("Events() = %+v, want insertion order %+v", evs, want)
	}
}

func TestTimelineShowsEvents(t *testing.T) {
	rec := recordLinialRun(t)
	rec.Annotate(2, "crash-stop", "node 7 crashes")
	out := rec.Timeline(40)
	if !strings.Contains(out, "events: 1 annotated") {
		t.Errorf("timeline missing event count:\n%s", out)
	}
	if !strings.Contains(out, "crash-stop") || !strings.Contains(out, "node 7 crashes") {
		t.Errorf("timeline missing event line:\n%s", out)
	}
	// Without events, the section is absent.
	rec2 := recordLinialRun(t)
	if strings.Contains(rec2.Timeline(40), "events:") {
		t.Error("event section rendered with no events")
	}
}
