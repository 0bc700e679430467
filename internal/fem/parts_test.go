package fem

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/volume"
)

// TestSystemFromPartsRejectsBadPartition feeds SystemFromParts node
// partitions whose lengths agree but whose ranges do not tile the
// nodes in order, as a corrupt artifact blob with a valid checksum
// can. Each must fail the decode; a system that is accepted anyway is
// multiplied over its DOF partition, which shows the crash the check
// prevents.
func TestSystemFromPartsRejectsBadPartition(t *testing.T) {
	b := sparse.NewBuilder(3)
	for i := 0; i < 3; i++ {
		b.Add(i, i, 1)
	}
	k := b.Build()
	for _, tc := range []struct {
		name   string
		p      int
		starts []int
	}{
		{"last start past the nodes", 1, []int{0, 2}},
		{"first start below zero", 1, []int{-1, 1}},
		{"starts decrease", 2, []int{0, 2, 1}},
	} {
		pt := par.Partition{N: 1, P: tc.p, Starts: tc.starts}
		sys, err := SystemFromParts(k, make([]float64, 3), pt, par.NewCounters(tc.p))
		if err == nil {
			sys.K.MulVecPar(sys.DOFPartition(), make([]float64, 3), make([]float64, 3))
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestInterpTableFromPartsRejectsBadContents feeds InterpTableFromParts
// parts whose lengths agree but whose contents would send Apply out of
// range, as a corrupt artifact blob with a valid checksum can. Each
// must fail the decode; a table that is accepted anyway is applied,
// which shows the crash the check prevents.
func TestInterpTableFromPartsRejectsBadContents(t *testing.T) {
	cube := volume.NewGrid(2, 2, 2, 1)
	for _, tc := range []struct {
		name  string
		g     volume.Grid
		vox   int32
		nodes []int32
	}{
		{"vox past grid", cube, 8, []int32{0, 0, 0, 0}},
		{"negative vox", cube, -1, []int32{0, 0, 0, 0}},
		{"negative node", cube, 0, []int32{0, 0, 0, -1}},
		{"empty grid", volume.NewGrid(0, 2, 2, 1), 0, []int32{0, 0, 0, 0}},
		// 2^66 voxels: the product wraps to zero in int.
		{"grid size overflows", volume.NewGrid(1<<22, 1<<22, 1<<22, 1), 0, []int32{0, 0, 0, 0}},
	} {
		tab, err := InterpTableFromParts(tc.g, []int32{tc.vox}, tc.nodes, make([]float64, 4))
		if err == nil {
			tab.Apply(make([]geom.Vec3, 1))
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
