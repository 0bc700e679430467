package core

// The pipeline DAG. Each registration (and each incremental update) is
// a short list of stageNodes executed in declared order; a node names
// its dependencies, the pipeState fields it reads and writes, and —
// for the preop-pure nodes — the Config fields that parameterize it.
// Those declarations are not documentation: the stagedag analyzer
// cross-checks every literal below against the //lint:stage contract
// on its run method, and the executor content-addresses pure nodes by
// hashing exactly the declared inputs and key fields. A stage that
// reads something it does not declare is a lint finding, not a stale
// cache entry.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/artifact"
	"repro/internal/classify"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/surface"
	"repro/internal/volume"
)

// stageNode is one node of a pipeline DAG.
type stageNode struct {
	// name is the contract's stage name (kebab-case, unique per DAG).
	name string
	// bucket is the reporting stage (the errors.go vocabulary) the
	// node's wall-clock time, trace span and observer events are
	// attributed to; consecutive nodes sharing a bucket appear as one
	// timed stage, which keeps the six-bar Figure 6 timeline intact.
	bucket string
	// deps name the earlier nodes whose outputs this node consumes.
	deps []string
	// inputs and outputs name the pipeState fields (or pipeline roots:
	// preop, preopLabels, intraop) the run method reads and writes.
	inputs  []string
	outputs []string
	// keys lists the Config fields folded into a pure node's content
	// key; the analyzer proves the body reads no others.
	keys []string
	// pure marks a content-addressed node: equal inputs and keys give
	// equal outputs, so the executor may satisfy it from the store.
	pure bool
	run  func(ctx context.Context, ps *pipeState) error
}

// pipeState carries one run's artifacts between stages. Field names
// are the vocabulary the //lint:stage contracts declare inputs and
// outputs in.
type pipeState struct {
	// Pipeline roots.
	preop       *volume.Scalar
	preopLabels *volume.Labels
	intraop     *volume.Scalar

	// Session state threaded through the run.
	cl    *classify.Classifier
	cache *sessionCache
	res   *Result

	// Stage artifacts.
	alignedPreop  *volume.Scalar
	alignedLabels *volume.Labels
	edtChannels   []*volume.Scalar
	mesh          *mesh.Mesh
	brainSurf     *mesh.TriMesh
	relaxedSurf   *mesh.TriMesh
	intraLabels   *volume.Labels
	surfRes       *surface.Result
	sys           *fem.System
	interp        *fem.InterpTable
	solveRes      *fem.SolveResult

	// hashes memoizes per-artifact content hashes for key chaining
	// (only populated when an artifact store is configured).
	hashes map[string][]byte
}

// runDAG validates and executes a stage DAG. Nodes run in declared
// order; consecutive nodes sharing a bucket run under one stage-runner
// invocation so timings, spans and observer events keep the classic
// per-stage shape. Any node error aborts the run wrapped in a
// *StageError naming the bucket.
func (p *Pipeline) runDAG(ctx context.Context, nodes []stageNode, ps *pipeState,
	stage func(name string, fn func(ctx context.Context) error) error) error {
	if err := validateDAG(nodes); err != nil {
		return err
	}
	for i := 0; i < len(nodes); {
		j := i
		for j < len(nodes) && nodes[j].bucket == nodes[i].bucket {
			j++
		}
		group := nodes[i:j]
		if err := stage(group[0].bucket, func(ctx context.Context) error {
			for _, n := range group {
				if err := p.runNode(ctx, n, ps); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// validateDAG is the runtime backstop behind the stagedag honesty
// check: names unique, every dep an earlier node. A violation is a
// wiring bug, reported before any stage runs.
func validateDAG(nodes []stageNode) error {
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n.name == "" || n.run == nil {
			return fmt.Errorf("core: stage DAG: node %q incomplete", n.name)
		}
		if seen[n.name] {
			return fmt.Errorf("core: stage DAG: duplicate stage %q", n.name)
		}
		for _, d := range n.deps {
			if !seen[d] {
				return fmt.Errorf("core: stage DAG: stage %q depends on %q, which is not an earlier stage", n.name, d)
			}
		}
		seen[n.name] = true
	}
	return nil
}

// runNode executes one node, satisfying pure nodes from the artifact
// store when one is configured. On a miss the node runs, its outputs
// are encoded into the store, and — deliberately — the just-encoded
// blob is decoded back into the state, so hit and miss runs hand the
// downstream stages bit-identical artifacts.
func (p *Pipeline) runNode(ctx context.Context, n stageNode, ps *pipeState) error {
	store := p.cfg.ArtifactStore
	if !n.pure || store == nil {
		return n.run(ctx, ps)
	}
	key, err := p.nodeKey(n, ps)
	if err != nil {
		// An unkeyable node (an upstream artifact the codec does not
		// cover) is computed uncached rather than failed.
		return n.run(ctx, ps)
	}
	blob, hit, err := store.GetOrCompute(key, func() ([]byte, error) {
		if rerr := n.run(ctx, ps); rerr != nil {
			return nil, rerr
		}
		return encodeOutputs(n, ps)
	})
	if err != nil {
		return err
	}
	if derr := decodeOutputs(n, blob, ps); derr != nil {
		if !hit {
			// We encoded this blob moments ago; failing to decode it is
			// a codec bug, not cache damage.
			return derr
		}
		// A hit that no longer decodes (schema drift inside one
		// version would be a bug, but stay corruption-tolerant):
		// recompute without the cache.
		return n.run(ctx, ps)
	}
	if ps.hashes == nil {
		ps.hashes = make(map[string][]byte)
	}
	sum := artifact.Key(blob)
	for _, out := range n.outputs {
		ps.hashes[out] = []byte(sum)
	}
	obs.SpanFromContext(ctx).SetAttr(n.name+"_cache_hit", hit)
	return nil
}

// nodeKey composes a pure node's content key: codec version, stage
// name, the canonical encoding of its declared Config key fields, and
// the content hash of each declared input artifact.
func (p *Pipeline) nodeKey(n stageNode, ps *pipeState) (string, error) {
	frag, err := p.cfg.cacheKeyFragment(n.keys)
	if err != nil {
		return "", err
	}
	parts := [][]byte{
		[]byte(fmt.Sprintf("dag-v%d", dagCodecVersion)),
		[]byte(n.name),
		[]byte(frag),
	}
	for _, in := range n.inputs {
		h, err := ps.inputHash(in)
		if err != nil {
			return "", err
		}
		parts = append(parts, []byte(in), h)
	}
	return artifact.Key(parts...), nil
}

// inputHash returns the memoized content hash of one named artifact;
// artifacts produced by earlier cached nodes already carry their blob
// hash, everything else is hashed through the codec on first use.
func (ps *pipeState) inputHash(name string) ([]byte, error) {
	if ps.hashes == nil {
		ps.hashes = make(map[string][]byte)
	}
	if h, ok := ps.hashes[name]; ok {
		return h, nil
	}
	data, err := ps.encodeField(name)
	if err != nil {
		return nil, err
	}
	h := []byte(artifact.Key(data))
	ps.hashes[name] = h
	return h, nil
}

// cacheKeyFragment renders the named Config fields canonically for key
// composition. Only fields a //lint:stage contract may declare in
// key=... appear here; an unknown name disables caching for that node
// rather than producing an under-keyed entry.
func (c Config) cacheKeyFragment(fields []string) (string, error) {
	var b strings.Builder
	for _, f := range fields {
		fmt.Fprintf(&b, "%s=", f)
		switch f {
		case "EDTSaturation":
			fmt.Fprintf(&b, "%v;", c.EDTSaturation)
		case "MeshCellSize":
			fmt.Fprintf(&b, "%v;", c.MeshCellSize)
		case "UseBCCMesh":
			fmt.Fprintf(&b, "%v;", c.UseBCCMesh)
		case "SnapMesh":
			fmt.Fprintf(&b, "%v;", c.SnapMesh)
		case "Surface":
			fmt.Fprintf(&b, "%+v;", c.Surface)
		case "Materials":
			// Canonical rendering: IEEE-754 bit patterns, map entries in
			// sorted label order (Go's map iteration order must never leak
			// into a content key).
			m := c.Materials
			fmt.Fprintf(&b, "default:%x,%x", math.Float64bits(m.Default.E), math.Float64bits(m.Default.Nu))
			labs := make([]int, 0, len(m.PerTissue))
			for lab := range m.PerTissue {
				labs = append(labs, int(lab))
			}
			sort.Ints(labs)
			for _, lab := range labs {
				mat := m.PerTissue[volume.Label(lab)]
				fmt.Fprintf(&b, "|%d:%x,%x", lab, math.Float64bits(mat.E), math.Float64bits(mat.Nu))
			}
			b.WriteString(";")
		case "Ranks":
			fmt.Fprintf(&b, "%v;", c.Ranks)
		case "Seed":
			fmt.Fprintf(&b, "%v;", c.Seed)
		default:
			return "", fmt.Errorf("core: no cache-key encoding for Config field %q", f)
		}
	}
	return b.String(), nil
}

// encodeField serializes one named pipeState artifact.
func (ps *pipeState) encodeField(name string) ([]byte, error) {
	w := &codecWriter{}
	switch name {
	case "alignedPreop":
		if ps.alignedPreop == nil {
			return nil, errMissingArtifact(name)
		}
		encodeScalar(w, ps.alignedPreop)
	case "alignedLabels":
		if ps.alignedLabels == nil {
			return nil, errMissingArtifact(name)
		}
		encodeLabels(w, ps.alignedLabels)
	case "edtChannels":
		w.u64(uint64(len(ps.edtChannels)))
		for _, ch := range ps.edtChannels {
			encodeScalar(w, ch)
		}
	case "mesh":
		if ps.mesh == nil {
			return nil, errMissingArtifact(name)
		}
		encodeMesh(w, ps.mesh)
	case "brainSurf":
		if ps.brainSurf == nil {
			return nil, errMissingArtifact(name)
		}
		encodeTriMesh(w, ps.brainSurf)
	case "relaxedSurf":
		if ps.relaxedSurf == nil {
			return nil, errMissingArtifact(name)
		}
		encodeTriMesh(w, ps.relaxedSurf)
	case "intraop":
		if ps.intraop == nil {
			return nil, errMissingArtifact(name)
		}
		encodeScalar(w, ps.intraop)
	case "sys":
		if ps.sys == nil {
			return nil, errMissingArtifact(name)
		}
		encodeSystem(w, ps.sys)
	case "interp":
		if ps.interp == nil {
			return nil, errMissingArtifact(name)
		}
		encodeInterpTable(w, ps.interp)
	default:
		return nil, fmt.Errorf("core: no codec for artifact %q", name)
	}
	return w.buf.Bytes(), nil
}

// decodeField deserializes one named pipeState artifact in place.
func (ps *pipeState) decodeField(name string, r *codecReader) error {
	switch name {
	case "alignedPreop":
		ps.alignedPreop = decodeScalar(r)
	case "alignedLabels":
		ps.alignedLabels = decodeLabels(r)
	case "edtChannels":
		n := r.sliceLen("edt channels", 1)
		chans := make([]*volume.Scalar, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			chans = append(chans, decodeScalar(r))
		}
		ps.edtChannels = chans
	case "mesh":
		ps.mesh = decodeMesh(r)
	case "brainSurf":
		ps.brainSurf = decodeTriMesh(r)
	case "relaxedSurf":
		ps.relaxedSurf = decodeTriMesh(r)
	case "sys":
		sys, err := decodeSystem(r)
		if err != nil {
			return err
		}
		// The codec stores everything but the mesh reference; the mesh is
		// its own artifact, already in the state by dependency order.
		if ps.mesh == nil {
			return errMissingArtifact("mesh")
		}
		sys.Mesh = ps.mesh
		ps.sys = sys
	case "interp":
		tab, err := decodeInterpTable(r)
		if err != nil {
			return err
		}
		// The table must resample onto the scan's grid from the nodes of
		// the system's mesh, both already in the state by dependency order.
		if ps.sys == nil || ps.intraop == nil {
			return errMissingArtifact("sys")
		}
		g, _, nodes, _ := tab.TableParts()
		if g != ps.intraop.Grid {
			return fmt.Errorf("core: artifact decode: interp table is not on the scan grid")
		}
		for _, id := range nodes {
			if 3*int(id) >= ps.sys.NumDOF {
				return fmt.Errorf("core: artifact decode: interp table node %d is not in the system", id)
			}
		}
		ps.interp = tab
	default:
		return fmt.Errorf("core: no codec for artifact %q", name)
	}
	return r.err
}

func errMissingArtifact(name string) error {
	return fmt.Errorf("core: artifact %q not computed yet", name)
}

// encodeOutputs packs a node's declared outputs into one store blob:
// codec version, then each output length-prefixed in declared order.
func encodeOutputs(n stageNode, ps *pipeState) ([]byte, error) {
	w := &codecWriter{}
	w.u32(dagCodecVersion)
	for _, out := range n.outputs {
		data, err := ps.encodeField(out)
		if err != nil {
			return nil, err
		}
		w.u64(uint64(len(data)))
		w.buf.Write(data)
	}
	return w.buf.Bytes(), nil
}

// decodeOutputs unpacks a store blob into the node's declared outputs.
func decodeOutputs(n stageNode, blob []byte, ps *pipeState) error {
	r := &codecReader{data: blob}
	if v := r.u32("codec version"); r.err == nil && v != dagCodecVersion {
		return fmt.Errorf("core: artifact codec version %d, want %d", v, dagCodecVersion)
	}
	for _, out := range n.outputs {
		nb := r.sliceLen("output "+out, 1)
		if r.err != nil {
			return r.err
		}
		sub := &codecReader{data: r.data[r.off : r.off+nb]}
		if err := ps.decodeField(out, sub); err != nil {
			return err
		}
		if sub.off != len(sub.data) {
			return fmt.Errorf("core: artifact %q has %d trailing bytes", out, len(sub.data)-sub.off)
		}
		r.off += nb
	}
	if r.off != len(r.data) {
		return fmt.Errorf("core: artifact blob has %d trailing bytes", len(r.data)-r.off)
	}
	return r.err
}

// publish copies the run's artifacts into the Result (and, for full
// registrations, into the session cache) — the single place the DAG's
// state meets the public API, shared by the success, degraded and
// error paths.
func (p *Pipeline) publish(ps *pipeState) {
	res := ps.res
	if ps.alignedPreop != nil {
		res.AlignedPreop = ps.alignedPreop
	}
	res.IntraopLabels = ps.intraLabels
	if ps.mesh != nil {
		res.Mesh = ps.mesh
	}
	if ps.surfRes != nil {
		res.Surface = ps.surfRes
	}
	if ps.solveRes == nil {
		return
	}
	res.SolveStats = ps.solveRes.Stats
	res.NodeDisplacements = ps.solveRes.NodeU
	stressSummary(ps.sys, ps.solveRes.NodeU, p.cfg.Materials, res)
	if ps.cache != nil && !res.Incremental {
		c := ps.cache
		c.rigid = res.Rigid
		c.alignedPreop = ps.alignedPreop
		c.edtChannels = ps.edtChannels
		c.mesh = ps.mesh
		c.relaxedSurf = ps.relaxedSurf
		c.sys = ps.sys
		c.prevU = ps.solveRes.U
		c.coldIterations = ps.solveRes.Stats.Iterations
	}
}

// finishDAG implements the shared tail of both pipelines: publish the
// computed artifacts, apply the clinical degraded fallback when the
// deadline expired during the solve or resample stage, and compute the
// match metrics on success.
func (p *Pipeline) finishDAG(ctx context.Context, err error, ps *pipeState) (*Result, *classify.Classifier, error) {
	p.publish(ps)
	if err != nil {
		var se *StageError
		if errors.As(err, &se) && (se.Stage == StageSolve || se.Stage == StageResample) &&
			p.degrade(ctx, err, ps.res, ps.intraop, ps.alignedPreop, ps.intraLabels) {
			return ps.res, ps.cl, nil
		}
		return nil, nil, err
	}
	matchMetrics(ps.res, ps.intraop, ps.alignedPreop, ps.intraLabels)
	return ps.res, ps.cl, nil
}
