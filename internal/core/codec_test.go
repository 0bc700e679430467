package core

import (
	"testing"

	"repro/internal/fem"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/volume"
)

// oneTet is the smallest mesh assembly accepts: one positively
// oriented unit tetrahedron.
func oneTet() *mesh.Mesh {
	return &mesh.Mesh{
		Nodes:    []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}},
		Tets:     [][4]int32{{0, 1, 2, 3}},
		TetLabel: []volume.Label{volume.LabelBrain},
	}
}

func encoded(enc func(w *codecWriter)) []byte {
	w := &codecWriter{}
	enc(w)
	return w.buf.Bytes()
}

// encodedInterp writes interpolation-table parts directly, bypassing
// InterpTableFromParts, so a test can store a table it would reject.
func encodedInterp(g volume.Grid, vox, nodes []int32) []byte {
	return encoded(func(w *codecWriter) {
		encodeGrid(w, g)
		w.i32s(vox)
		w.i32s(nodes)
		w.f64s(make([]float64, len(nodes)))
	})
}

// TestDecodeMeshRejectsBadContents stores meshes whose lengths agree
// but whose contents would send assembly out of range, as a corrupt
// artifact blob with a valid checksum can. Each must fail the decode;
// a mesh that is accepted anyway is assembled, which shows the crash
// the check prevents.
func TestDecodeMeshRejectsBadContents(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(m *mesh.Mesh)
	}{
		{"tet node past nodes", func(m *mesh.Mesh) { m.Tets[0][3] = 4 }},
		{"negative tet node", func(m *mesh.Mesh) { m.Tets[0][3] = -1 }},
		{"labels short of tets", func(m *mesh.Mesh) { m.TetLabel = nil }},
	} {
		m := oneTet()
		tc.edit(m)
		r := &codecReader{data: encoded(func(w *codecWriter) { encodeMesh(w, m) })}
		got := decodeMesh(r)
		if r.err == nil {
			_, _ = fem.Assemble(got, fem.HeterogeneousBrain(), par.Even(got.NumNodes(), 1))
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDecodeInterpRejectsTableOfAnotherCase checks the links the
// table's own constructor cannot see: its nodes must exist in the
// decoded system and its grid must be the scan's.
func TestDecodeInterpRejectsTableOfAnotherCase(t *testing.T) {
	g := volume.NewGrid(2, 2, 2, 1)
	for _, tc := range []struct {
		name      string
		tableGrid volume.Grid
		node      int32
	}{
		{"node past the system", g, 4},
		{"grid of another scan", volume.NewGrid(3, 2, 2, 1), 0},
	} {
		ps := &pipeState{sys: &fem.System{NumDOF: 12}, intraop: volume.NewScalar(g)}
		r := &codecReader{data: encodedInterp(tc.tableGrid, []int32{0}, []int32{0, 0, 0, tc.node})}
		if err := ps.decodeField("interp", r); err == nil {
			ps.interp.Apply(make([]geom.Vec3, 4))
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzDecodeArtifacts applies a decoded table only on a grid of at
// most fuzzVoxels voxels, for nodal displacements of a fuzzNodes-node
// mesh. Apply allocates a field the size of the grid, which the table
// constructor bounds only by int32 addressing; the executor also ties
// the grid to the scan's and the node ids to the decoded system
// (TestDecodeInterpRejectsTableOfAnotherCase).
const (
	fuzzVoxels = 1 << 16
	fuzzNodes  = 64
)

// FuzzDecodeArtifacts feeds arbitrary bytes to the assembled-system,
// mesh and interpolation-table decoders. Each decode must either fail
// or give an object the next stage can use without a panic: a matrix
// MulVec can multiply serially and over its partition, a mesh assembly
// can index, and a table Apply can gather through.
func FuzzDecodeArtifacts(f *testing.F) {
	m := oneTet()
	sys, err := fem.Assemble(m, fem.HeterogeneousBrain(), par.Even(m.NumNodes(), 2))
	if err != nil {
		f.Fatal(err)
	}
	badCol := append([]int32(nil), sys.K.Col...)
	badCol[0] = int32(sys.K.N)
	badK := &sparse.CSR{N: sys.K.N, RowPtr: sys.K.RowPtr, Col: badCol, Val: sys.K.Val}
	badSys, err := fem.SystemFromParts(badK, sys.F, sys.NodePart, sys.Assembly)
	if err != nil {
		f.Fatal(err)
	}
	badMesh := oneTet()
	badMesh.Tets[0][3] = 4
	tab := sys.BuildInterpTable(volume.NewGrid(3, 3, 3, 0.5))

	f.Add(encoded(func(w *codecWriter) { encodeSystem(w, sys) }))
	f.Add(encoded(func(w *codecWriter) { encodeSystem(w, badSys) }))
	f.Add(encoded(func(w *codecWriter) { encodeMesh(w, m) }))
	f.Add(encoded(func(w *codecWriter) { encodeMesh(w, badMesh) }))
	f.Add(encoded(func(w *codecWriter) { encodeInterpTable(w, tab) }))
	f.Add(encodedInterp(volume.NewGrid(2, 2, 2, 1), []int32{8}, []int32{0, 0, 0, 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if sys, err := decodeSystem(&codecReader{data: data}); err == nil {
			x := make([]float64, sys.K.N)
			y := make([]float64, sys.K.N)
			sys.K.MulVec(x, y)
			sys.K.MulVecPar(sys.DOFPartition(), x, y)
		}
		r := &codecReader{data: data}
		if m := decodeMesh(r); r.err == nil {
			// Assembly may reject the geometry (a degenerate element)
			// but must not panic.
			_, _ = fem.Assemble(m, fem.HeterogeneousBrain(), par.Even(m.NumNodes(), 1))
		}
		tab, err := decodeInterpTable(&codecReader{data: data})
		if err != nil || tab.Grid().Len() > fuzzVoxels {
			return
		}
		_, _, nodes, _ := tab.TableParts()
		for _, id := range nodes {
			if id >= fuzzNodes {
				return
			}
		}
		tab.Apply(make([]geom.Vec3, fuzzNodes))
	})
}
