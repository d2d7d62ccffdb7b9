// chaos.go lifts the package's fault-plan discipline from the message
// layer to the process layer: a ChaosPlan is a deterministic,
// seed-derived schedule of writer kills and log damage for the durable
// coloring service — kill at a batch boundary, kill mid-record, flip a
// WAL byte, truncate the tail. Like Plan, every choice derives from
// the seed via splitmix64, so a chaos matrix replays the identical
// kill schedule under every driver and across reruns.
package adversary

import "fmt"

// ChaosMode is the process-level fault taxonomy.
type ChaosMode string

const (
	// ChaosBoundary kills the writer between batches: the process is
	// gone, the log ends at a record boundary.
	ChaosBoundary ChaosMode = "boundary"
	// ChaosMidRecord kills the writer inside a WAL append: a
	// draw-chosen prefix of the record reaches disk — the torn-write
	// case.
	ChaosMidRecord ChaosMode = "mid-record"
	// ChaosFlipByte kills at a boundary and then flips one draw-chosen
	// byte inside the surviving log — post-crash media damage.
	ChaosFlipByte ChaosMode = "flip-byte"
	// ChaosTruncate kills at a boundary and then cuts a draw-chosen
	// number of bytes off the log's tail — lost final sectors.
	ChaosTruncate ChaosMode = "truncate"
)

// chaosModes is the draw→mode table; order is part of the plan
// format (reordering would change every derived schedule).
var chaosModes = [...]ChaosMode{ChaosBoundary, ChaosMidRecord, ChaosFlipByte, ChaosTruncate}

// SplitMix64Stream returns a deterministic draw stream: successive
// calls walk the splitmix64 orbit from the seed. The chaos script
// generator uses it so churn derives from the plan seed with the same
// discipline as the message-layer bit-flips — never math/rand.
func SplitMix64Stream(seed uint64) func() uint64 {
	x := seed
	return func() uint64 {
		x = splitmix64(x)
		return x
	}
}

// ChaosPoint is one kill: run the script up to batch Batch, then
// apply the mode's damage. Draw seeds the mode's free choice (tear
// prefix, flip offset, truncate length).
type ChaosPoint struct {
	Batch int
	Mode  ChaosMode
	Draw  uint64
}

// ChaosPlan is a complete kill schedule over a batches-long script.
type ChaosPlan struct {
	Seed    int64
	Batches int
	Points  []ChaosPoint
}

// NewChaosPlan derives a points-long kill schedule for a script of
// the given batch count. Every point is a pure function of (seed,
// index): the matrix is identical across reruns and machines.
func NewChaosPlan(seed int64, batches, points int) ChaosPlan {
	p := ChaosPlan{Seed: seed, Batches: batches, Points: make([]ChaosPoint, 0, points)}
	for i := 0; i < points; i++ {
		x := splitmix64(uint64(seed))
		x = splitmix64(x ^ uint64(i)<<1)
		batch := int(x % uint64(batches))
		x = splitmix64(x)
		mode := chaosModes[x%uint64(len(chaosModes))]
		x = splitmix64(x)
		p.Points = append(p.Points, ChaosPoint{Batch: batch, Mode: mode, Draw: x})
	}
	return p
}

// Validate rejects structurally broken chaos plans: unknown modes and
// kill points outside the script.
func (p ChaosPlan) Validate() error {
	if p.Batches < 1 {
		return fmt.Errorf("adversary: chaos plan over %d batches", p.Batches)
	}
	for i, pt := range p.Points {
		ok := false
		for _, m := range chaosModes {
			if pt.Mode == m {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("adversary: chaos point %d: unknown mode %q", i, pt.Mode)
		}
		if pt.Batch < 0 || pt.Batch >= p.Batches {
			return fmt.Errorf("adversary: chaos point %d: batch %d outside [0,%d)", i, pt.Batch, p.Batches)
		}
	}
	return nil
}
