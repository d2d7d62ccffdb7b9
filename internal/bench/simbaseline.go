package bench

// SimBenchBaseline returns the recorded round-throughput of the
// pre-arena router (per-round `make([][]Message, n)`, per-message
// target slice, per-inbox `sort.SliceStable`), measured once on the
// reference container (2026-08-05, linux/amd64) before the arena
// rewrite landed. It is the fixed anchor BENCH_sim.json compares the
// current engine against; it is not re-measured by `make bench-sim`.
func SimBenchBaseline() []SimBenchEntry {
	return []SimBenchEntry{
		{Workload: "ring", Driver: "lockstep", Nodes: 256, Edges: 256, Rounds: 4096, MsgsPerRound: 512, RoundsPerSec: 18160, NsPerRound: 55067, BytesPerRound: 49550, AllocsPerRound: 1281.3},
		{Workload: "ring", Driver: "workers", Nodes: 256, Edges: 256, Rounds: 4096, MsgsPerRound: 512, RoundsPerSec: 19245, NsPerRound: 51962, BytesPerRound: 53889, AllocsPerRound: 1294.3},
		{Workload: "gnp", Driver: "lockstep", Nodes: 256, Edges: 1623, Rounds: 4096, MsgsPerRound: 3246, RoundsPerSec: 4341, NsPerRound: 230381, BytesPerRound: 238350, AllocsPerRound: 2050.3},
		{Workload: "gnp", Driver: "workers", Nodes: 256, Edges: 1623, Rounds: 4096, MsgsPerRound: 3246, RoundsPerSec: 6138, NsPerRound: 162926, BytesPerRound: 242689, AllocsPerRound: 2063.3},
		{Workload: "complete", Driver: "lockstep", Nodes: 64, Edges: 2016, Rounds: 1024, MsgsPerRound: 4032, RoundsPerSec: 9656, NsPerRound: 103565, BytesPerRound: 227598, AllocsPerRound: 641.3},
		{Workload: "complete", Driver: "workers", Nodes: 64, Edges: 2016, Rounds: 1024, MsgsPerRound: 4032, RoundsPerSec: 11192, NsPerRound: 89353, BytesPerRound: 228865, AllocsPerRound: 652.3},
	}
}
