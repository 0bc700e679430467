package fem

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// elementStiffness computes the 12x12 stiffness of a linear tetrahedral
// element as 3x3 nodal blocks:
//
//	K_ab[i][j] = V ( lambda g_a[i] g_b[j] + mu g_a[j] g_b[i]
//	                 + mu delta_ij (g_a . g_b) )
//
// where g_a is the gradient of shape function a (constant over the
// element) — the closed form of B^T D B for isotropic elasticity.
//
//lint:hotpath
//lint:noescape
func elementStiffness(t geom.Tet, mat Material) ([4][4][3][3]float64, error) {
	var k [4][4][3][3]float64
	sc, err := t.Shape()
	if err != nil {
		return k, err
	}
	vol := t.Volume()
	lambda, mu := mat.Lame()
	var g [4][3]float64
	for a := 0; a < 4; a++ {
		g[a][0] = sc.B[a]
		g[a][1] = sc.C[a]
		g[a][2] = sc.D[a]
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			dotAB := g[a][0]*g[b][0] + g[a][1]*g[b][1] + g[a][2]*g[b][2]
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					v := lambda*g[a][i]*g[b][j] + mu*g[a][j]*g[b][i]
					if i == j {
						v += mu * dotAB
					}
					k[a][b][i][j] = vol * v
				}
			}
		}
	}
	return k, nil
}

// elementStiffnessFlops estimates the floating point work of one
// element stiffness computation, for the performance counters.
const elementStiffnessFlops = 600

// System is an assembled linear elastic system K u = f over the mesh
// DOFs (3 per node: node n owns DOFs 3n..3n+2).
// The solver indexes F and Constrained by DOF without bounds slack,
// per the declared shape contract.
//
//lint:shape len(F)==NumDOF len(Constrained)==NumDOF
type System struct {
	Mesh   *mesh.Mesh
	K      *sparse.CSR
	F      []float64
	NumDOF int
	// NodePart is the node partition used for assembly; the DOF
	// partition used by the solver is its 3x expansion.
	NodePart par.Partition
	// Assembly holds per-rank assembly work counters. Wall-clock
	// assembly time is observability, not state: the fem.assemble trace
	// span measures it, keeping the assembled System a deterministic
	// function of (mesh, materials, partition) — the property the
	// content-addressed preop-assemble cache stage rests on.
	Assembly *par.Counters
	// Constrained marks DOFs fixed by Dirichlet conditions.
	Constrained []bool

	// bcVal holds the currently prescribed value of each constrained DOF
	// (zero elsewhere); bcCoupling holds, per constrained DOF, the
	// stiffness coupling that ApplyDirichlet moved to the right-hand
	// side. Together they let PatchDirichlet update F for changed
	// boundary displacements without re-eliminating the matrix.
	bcVal      []float64
	bcCoupling map[int]dirichletCoupling
	// nConstrained counts constrained DOFs, for the set-equality check
	// of PatchDirichlet.
	nConstrained int
	// pcCache keeps the factorized block-Jacobi preconditioner alive
	// across solves of the same stiffness matrix (keyed on CSR identity,
	// so any rebuild of K misses automatically).
	pcCache solver.PCCache
}

// checkShape validates the DOF-indexed array invariants; simlint's
// shapecheck analyzer requires it after any construction it cannot
// prove statically (SystemFromParts below; assemble's own construction
// is provable).
//
//lint:shape validator
func (s *System) checkShape() {
	if len(s.F) != s.NumDOF || len(s.Constrained) != s.NumDOF {
		panic(fmt.Sprintf("fem: inconsistent System shape: numDOF=%d len(F)=%d len(Constrained)=%d",
			s.NumDOF, len(s.F), len(s.Constrained)))
	}
}

// SystemFromParts reconstructs an assembled, unconstrained system from
// serialized parts (the core artifact codec's decode path): the
// stiffness matrix, load vector, node partition and assembly counters
// as assembly produced them, before any Dirichlet elimination. The mesh
// reference is left nil for the caller to re-link from its own
// artifact. Shape violations, and a partition whose ranges do not
// tile the nodes in order, are reported as errors so a drifted blob
// fails decode instead of panicking.
func SystemFromParts(k *sparse.CSR, f []float64, pt par.Partition, counters *par.Counters) (*System, error) {
	if k == nil || counters == nil {
		return nil, errors.New("fem: system parts: nil matrix or counters")
	}
	if len(f) != k.N {
		return nil, fmt.Errorf("fem: system parts: load vector length %d, matrix order %d", len(f), k.N)
	}
	if k.N%3 != 0 || pt.N != k.N/3 || len(pt.Starts) != pt.P+1 {
		return nil, fmt.Errorf("fem: system parts: node partition (N=%d, P=%d, starts=%d) does not cover %d DOFs",
			pt.N, pt.P, len(pt.Starts), k.N)
	}
	tiles := pt.P >= 1 && pt.Starts[0] == 0 && pt.Starts[pt.P] == pt.N
	for r := 0; tiles && r < pt.P; r++ {
		tiles = pt.Starts[r+1] >= pt.Starts[r]
	}
	if !tiles {
		return nil, errors.New("fem: system parts: node partition ranges do not tile the nodes in order")
	}
	if counters.P != pt.P || len(counters.Flops) != pt.P ||
		len(counters.BytesSent) != pt.P || len(counters.Messages) != pt.P {
		return nil, fmt.Errorf("fem: system parts: counters for %d ranks, partition has %d", counters.P, pt.P)
	}
	s := &System{
		K:           k,
		F:           f,
		NumDOF:      k.N,
		NodePart:    pt,
		Assembly:    counters,
		Constrained: make([]bool, k.N),
	}
	s.checkShape()
	return s, nil
}

// dirichletCoupling records the original column entries K0[i][j] of one
// constrained DOF j against the unconstrained rows i, in the order they
// were eliminated.
type dirichletCoupling struct {
	rows []int32
	coef []float64
}

// ErrBoundarySetChanged reports that an incremental patch named a
// different constrained node set than the one eliminated by
// ApplyDirichlet; the caller must fall back to a full re-assembly.
var ErrBoundarySetChanged = errors.New("fem: Dirichlet boundary set changed; full re-assembly required")

// DOFPartition returns the row partition of the 3N-dimensional system
// corresponding to the node partition (contiguous, nodes*3).
func (s *System) DOFPartition() par.Partition {
	pt := s.NodePart
	starts := make([]int, pt.P+1)
	for i := range starts {
		starts[i] = pt.Starts[i] * 3
	}
	return par.Partition{N: pt.N * 3, P: pt.P, Starts: starts}
}

// Assemble builds the global stiffness matrix with a background
// context; see AssembleContext. Each rank assembles the matrix rows of
// the nodes it owns; an element spanning nodes of several ranks is
// visited by each of them (this duplicated element work, plus the
// varying node connectivity, is the paper's assembly load imbalance —
// it emerges from the data rather than being injected).
//
//lint:phase provides=assembled
func Assemble(m *mesh.Mesh, mats Table, pt par.Partition) (*System, error) {
	return AssembleContext(context.Background(), m, mats, pt)
}

// AssembleContext is Assemble with telemetry: when the context carries
// an obs tracer, the assembly is wrapped in a "fem.assemble" span with
// the per-rank work snapshot (flops, max/mean imbalance) attached — the
// quantities the paper's load-balance discussion revolves around. The
// assembly itself is not cancellable (it is one bounded bulk-synchronous
// phase; the surrounding stage checks the context).
//
//lint:phase provides=assembled
func AssembleContext(ctx context.Context, m *mesh.Mesh, mats Table, pt par.Partition) (sys *System, err error) {
	_, span := obs.StartSpan(ctx, obs.SpanFEMAssemble)
	defer func() { span.End(err) }()
	sys, err = assemble(m, mats, pt)
	if err == nil {
		snap := sys.Assembly.Snapshot()
		span.SetAttr("ranks", snap.Ranks)
		span.SetAttr("flops", snap.TotalFlops)
		span.SetAttr("max_rank_flops", snap.MaxFlops)
		span.SetAttr("imbalance", snap.Imbalance)
		span.SetAttr("elements", m.NumTets())
		span.SetAttr("nodes", m.NumNodes())
		obs.Emit(ctx, obs.EventFEMAssembly, map[string]any{
			"ranks":     snap.Ranks,
			"flops":     snap.TotalFlops,
			"imbalance": snap.Imbalance,
			"elements":  m.NumTets(),
			"nodes":     m.NumNodes(),
		})
	}
	return sys, err
}

func assemble(m *mesh.Mesh, mats Table, pt par.Partition) (*System, error) {
	if err := mats.Validate(); err != nil {
		return nil, err
	}
	if pt.N != m.NumNodes() {
		return nil, fmt.Errorf("fem: partition over %d nodes, mesh has %d", pt.N, m.NumNodes())
	}
	nDOF := 3 * m.NumNodes()
	// Element lists per rank: an element belongs to every rank owning at
	// least one of its nodes.
	elems := make([][]int32, pt.P)
	for e, t := range m.Tets {
		var ranks [4]int
		nr := 0
		for _, node := range t {
			r := pt.Owner(int(node))
			dup := false
			for i := 0; i < nr; i++ {
				if ranks[i] == r {
					dup = true
					break
				}
			}
			if !dup {
				ranks[nr] = r
				nr++
			}
		}
		for i := 0; i < nr; i++ {
			elems[ranks[i]] = append(elems[ranks[i]], int32(e))
		}
	}

	counters := par.NewCounters(pt.P)
	builders := make([]*sparse.Builder, pt.P)
	rhs := make([]float64, nDOF)
	errs := make([]error, pt.P)
	pt.ForEachRank(func(r int) {
		lo, hi := pt.Range(r)
		b := sparse.NewBuilder(nDOF)
		builders[r] = b
		for _, e := range elems[r] {
			t := m.Tets[e]
			ke, err := elementStiffness(m.TetGeom(int(e)), mats.For(m.TetLabel[e]))
			if err != nil {
				errs[r] = fmt.Errorf("fem: element %d: %w", e, err)
				return
			}
			counters.AddFlops(r, elementStiffnessFlops)
			for a := 0; a < 4; a++ {
				na := int(t[a])
				if na < lo || na >= hi {
					continue // row owned by another rank
				}
				for bn := 0; bn < 4; bn++ {
					nb := int(t[bn])
					for i := 0; i < 3; i++ {
						for j := 0; j < 3; j++ {
							v := ke[a][bn][i][j]
							if numeric.NonZero(v) {
								b.Add(3*na+i, 3*nb+j, v)
							}
						}
					}
					counters.AddFlops(r, 9)
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Merge per-rank builders; in the distributed original this is free
	// (each rank keeps its rows), here it is a serial concatenation.
	global := builders[0]
	for _, b := range builders[1:] {
		if err := global.Merge(b); err != nil {
			return nil, err
		}
	}
	k := global.Build()
	sys := &System{
		Mesh:        m,
		K:           k,
		F:           rhs,
		NumDOF:      nDOF,
		NodePart:    pt,
		Assembly:    counters,
		Constrained: make([]bool, nDOF),
	}
	return sys, nil
}

// ApplyDirichlet constrains the three DOFs of each listed node to the
// given displacement. Rows of constrained DOFs are replaced by identity
// equations, and their coupling is moved to the right-hand side of the
// remaining equations ("substituting known values for equations in the
// original system", as the paper puts it). The stiffness matrix is
// rebuilt; call once with all conditions.
//
// The eliminated coupling is retained on the System so that a later
// PatchDirichlet can re-prescribe displacements for the same node set
// without touching the matrix.
//
//lint:phase requires=assembled provides=bc-applied forbids=bc-applied
func (s *System) ApplyDirichlet(bc map[int32]geom.Vec3) error {
	if len(bc) == 0 {
		return fmt.Errorf("fem: no boundary conditions given; system would be singular")
	}
	val := make([]float64, s.NumDOF)
	for node, d := range bc {
		if node < 0 || int(node) >= s.Mesh.NumNodes() {
			return fmt.Errorf("fem: boundary node %d out of range", node)
		}
		for i := 0; i < 3; i++ {
			dof := 3*int(node) + i
			s.Constrained[dof] = true
		}
		val[3*int(node)+0] = d.X
		val[3*int(node)+1] = d.Y
		val[3*int(node)+2] = d.Z
	}
	coupling := make(map[int]dirichletCoupling, 3*len(bc))
	nc := 0
	k := s.K
	nb := sparse.NewBuilder(s.NumDOF)
	for i := 0; i < s.NumDOF; i++ {
		if s.Constrained[i] {
			nb.Add(i, i, 1)
			s.F[i] = val[i]
			nc++
			continue
		}
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			j := int(k.Col[p])
			if s.Constrained[j] {
				s.F[i] -= k.Val[p] * val[j]
				c := coupling[j]
				c.rows = append(c.rows, int32(i))
				c.coef = append(c.coef, k.Val[p])
				coupling[j] = c
			} else {
				nb.Add(i, j, k.Val[p])
			}
		}
	}
	s.K = nb.Build()
	s.bcVal = val
	s.bcCoupling = coupling
	s.nConstrained = nc
	// The eliminated matrix is a new CSR, so the identity-keyed cache
	// would miss anyway; dropping the stale factors frees them now.
	s.pcCache.Invalidate()
	return nil
}

// PatchDirichlet re-prescribes the surface displacements of an already
// constrained system. The boundary node set must be exactly the set
// given to ApplyDirichlet (the incremental path re-evolves the same
// surface, so its vertex-to-node map is stable); a different set
// returns ErrBoundarySetChanged and leaves the system untouched.
//
// Only the right-hand side changes: for each DOF whose prescribed value
// moved by delta, the retained coupling updates the unconstrained
// equations (F[i] -= K0[i][j]*delta) and the identity row is set to the
// new value. The stiffness matrix — and with it the cached
// preconditioner factors — stays valid. Returns the number of DOFs
// whose value actually changed.
//
//lint:phase requires=assembled,bc-applied
func (s *System) PatchDirichlet(ctx context.Context, bc map[int32]geom.Vec3) (changed int, err error) {
	_, span := obs.StartSpan(ctx, obs.SpanFEMPatchBC)
	defer func() { span.End(err) }()
	if s.bcVal == nil {
		return 0, fmt.Errorf("fem: PatchDirichlet before ApplyDirichlet: %w", ErrBoundarySetChanged)
	}
	if 3*len(bc) != s.nConstrained {
		return 0, fmt.Errorf("fem: %d boundary nodes, eliminated system has %d: %w",
			len(bc), s.nConstrained/3, ErrBoundarySetChanged)
	}
	for node := range bc {
		if node < 0 || int(node) >= s.Mesh.NumNodes() || !s.Constrained[3*int(node)] {
			return 0, fmt.Errorf("fem: node %d not constrained by the baseline solve: %w",
				node, ErrBoundarySetChanged)
		}
	}
	// Iterate in DOF order, not map order: a free row coupled to several
	// moving boundary DOFs accumulates several -= terms into F, and float
	// accumulation must run in a fixed order for the bit-reproducible
	// re-solves the warm-start equality tests assume.
	for dof, con := range s.Constrained {
		if !con {
			continue
		}
		d, ok := bc[int32(dof/3)]
		if !ok {
			continue
		}
		var v float64
		switch dof % 3 {
		case 0:
			v = d.X
		case 1:
			v = d.Y
		default:
			v = d.Z
		}
		delta := v - s.bcVal[dof]
		if numeric.Zero(delta) {
			continue
		}
		c := s.bcCoupling[dof]
		// Re-slicing coef to rows' length proves the two stride together,
		// eliminating the coef[p] bounds check (cf. sparse.MulVec).
		rows := c.rows
		coef := c.coef[:len(rows)]
		for p, row := range rows {
			s.F[row] -= coef[p] * delta
		}
		s.F[dof] = v
		s.bcVal[dof] = v
		changed++
	}
	span.SetAttr("dofs_changed", changed)
	span.SetAttr("dofs_constrained", s.nConstrained)
	obs.Emit(ctx, obs.EventFEMPatch, map[string]any{
		"dofs_changed":     changed,
		"dofs_constrained": s.nConstrained,
	})
	return changed, nil
}

// ConstrainedPerRank returns, for the DOF partition, how many of each
// rank's rows are Dirichlet-constrained — the paper's second load
// imbalance ("the distribution of surface displacements is not equal
// across CPUs").
func (s *System) ConstrainedPerRank() []int {
	pt := s.DOFPartition()
	out := make([]int, pt.P)
	for r := 0; r < pt.P; r++ {
		lo, hi := pt.Range(r)
		for i := lo; i < hi; i++ {
			if s.Constrained[i] {
				out[r]++
			}
		}
	}
	return out
}

// NodeDisplacements reshapes a DOF solution vector into per-node
// displacement vectors.
func (s *System) NodeDisplacements(u []float64) []geom.Vec3 {
	out := make([]geom.Vec3, s.Mesh.NumNodes())
	for n := range out {
		out[n] = geom.V(u[3*n], u[3*n+1], u[3*n+2])
	}
	return out
}
