package sim

import "testing"

func TestAllDriversReferenceFirst(t *testing.T) {
	ds := AllDrivers()
	if len(ds) < 2 || ds[0] != Lockstep {
		t.Fatalf("AllDrivers() = %v, want Lockstep first and at least one concurrent driver", ds)
	}
}

func TestWithDriver(t *testing.T) {
	base := Config{BandwidthBits: 7}
	got := base.WithDriver(Workers)
	if got.Driver != Workers || got.BandwidthBits != 7 {
		t.Errorf("WithDriver: got %+v", got)
	}
	if base.Driver != 0 {
		t.Error("WithDriver mutated the receiver")
	}
}
