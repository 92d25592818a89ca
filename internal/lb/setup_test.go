package lb

import (
	"fmt"
	"runtime"
	"testing"

	"drill/internal/fabric"
	"drill/internal/sim"
)

// BenchmarkDRILLAsymBuildTables times one control-plane rebuild — the
// Quiver passes plus table installation at every switch — as every
// reconvergence epoch pays it.
func BenchmarkDRILLAsymBuildTables(b *testing.B) {
	for _, k := range []int{8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := NewDRILLAsym()
			net := fabric.New(sim.New(1), fatTree(k), fabric.Config{Balancer: d})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.BuildTables(net)
			}
		})
	}
}

// setupMallocBudget bounds the heap allocations of fabric.New with the
// Quiver tables on a k=16 fat-tree (1024 hosts, 320 switches). Listing
// every shortest path took 8.1M; the DAG passes take about 0.4M.
const setupMallocBudget = 1_000_000

func TestDRILLAsymSetupMallocs(t *testing.T) {
	tp := fatTree(16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fabric.New(sim.New(1), tp, fabric.Config{Balancer: NewDRILLAsym()})
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("fabric.New, k=16 DRILLAsym: %d mallocs, %.1f MB", n, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	if n > setupMallocBudget {
		t.Fatalf("fabric.New with DRILLAsym on k=16 made %d heap allocations, budget %d", n, setupMallocBudget)
	}
}
