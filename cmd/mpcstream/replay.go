package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpc"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/streamio"
	"repro/internal/trace"
	"repro/internal/workload"
)

// vertexSpace sizes a text stream's vertex space (max vertex + 1) in one
// pass that holds a single batch at a time; the stream is never
// materialized.
func vertexSpace(path string) (int, error) {
	file, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	n := 0
	for r := streamio.NewReader(file); ; {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if m := b.MaxVertex(); m >= n {
			n = m + 1
		}
	}
	if n < 2 {
		return 0, fmt.Errorf("stream references fewer than 2 vertices")
	}
	return n, nil
}

// replay runs a -stream or -trace file through any registered algorithm on
// a Session, optionally resuming from and/or writing a checkpoint. Every
// batch is admitted into the session's mirror (validated, applied,
// journaled) before the algorithm sees it, and the final state is verified
// against that mirror. When -resume and -checkpoint name the same path, the
// written checkpoint extends the restored chain as a cheap delta (carrying
// only the replayed update batches, which the next resume replays) instead
// of rewriting the full snapshot.
func replay(o options, out io.Writer) error {
	flagName, path := "-trace", o.traceFile
	if path == "" {
		flagName, path = "-stream", o.streamFile
	}
	algo, err := harness.GetAlgorithm(o.algo)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	// The two inputs differ only in how they are opened and positioned,
	// never in how they are replayed. A trace's footer carries its vertex
	// space, batch count and a seekable index, so resuming a checkpoint cut
	// mid-trace seeks straight to the first unapplied batch. A text stream
	// is sized by a first pass (a resumed snapshot already pins the vertex
	// space) and keeps its historical meaning under -resume: the file holds
	// further updates, all replayed.
	var src workload.BatchSource
	var seek func(batch int) error
	if o.traceFile != "" {
		tr, err := trace.NewReader(file)
		if err != nil {
			return err
		}
		src, seek = tr, tr.SeekBatch
	} else {
		text := workload.Shape{Batches: -1, Updates: -1}
		if o.resumeFile == "" {
			if text.N, err = vertexSpace(path); err != nil {
				return err
			}
		}
		src = workload.NewFuncSource(text, streamio.NewReader(file).Next)
	}
	shape := src.Shape()

	cfg := session.Config{
		Shape: session.Shape{N: shape.N, Phi: o.phi, Seed: o.seed, Parallelism: o.parallelism},
		New: func(sh session.Shape) (session.State, error) {
			return algo.New(harness.Options{
				N: sh.N, Phi: sh.Phi, Seed: sh.Seed, Parallelism: sh.Parallelism, VerticesPerMachine: sh.VerticesPerMachine,
				Alpha: o.alpha, Eps: o.eps, MaxWeight: o.maxWeight,
			})
		},
	}
	var sess *session.Session
	var chain *snapshot.Chain
	if o.resumeFile == "" {
		cfg.Mirror = session.NewMirror(shape.N)
		sess, err = session.New(cfg)
	} else {
		sess, chain, err = resume(o, cfg, out)
	}
	if err != nil {
		return err
	}
	mirror := sess.Mirror()
	if shape.N > sess.Shape().N {
		return fmt.Errorf("trace spans %d vertices but the resumed snapshot covers [0,%d)", shape.N, sess.Shape().N)
	}
	if o.resumeFile != "" && seek != nil {
		at := sess.Applied()
		if at > shape.Batches {
			return fmt.Errorf("snapshot says %d batches already applied but the trace holds only %d — wrong trace for this checkpoint?", at, shape.Batches)
		}
		if err := seek(at); err != nil {
			return err
		}
		fmt.Fprintf(out, "continuing at trace batch %d of %d (segment index seek)\n", at, shape.Batches)
	}

	replayed := 0
	for o.traceBatches <= 0 || replayed < o.traceBatches {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(b) == 0 {
			continue
		}
		if err := mirror.Admit(b); err != nil {
			return fmt.Errorf("replayed batch %d: invalid batch: %w", replayed, err)
		}
		if err := sess.Apply(b); err != nil {
			return err
		}
		replayed++
	}

	// The summary is identical across the text and trace paths, so CI can
	// diff them.
	inst := sess.State().(harness.Instance)
	if err := inst.Check(mirror.Graph()); err != nil {
		return fmt.Errorf("replay diverged from the oracle: %w", err)
	}
	fmt.Fprintf(out, "replayed %d batches on %d vertices: %s (oracle-verified)\n",
		replayed, sess.Shape().N, answer(inst))
	if c, ok := inst.(interface{ Cluster() *mpc.Cluster }); ok {
		report(out, c.Cluster().Stats(), replayed)
	}
	if s, ok := inst.(interface{ SearchStats() core.SearchStats }); ok {
		reportSearches(out, s.SearchStats())
	}
	if o.checkpointFile == "" {
		return nil
	}
	if chain == nil {
		// Writing somewhere other than the chain this state was restored
		// from (or at a new fleet shape): a fresh chain, which starts with a
		// full base and sweeps whatever deltas were left at that path.
		chain = snapshot.OpenChain(o.checkpointFile, o.maxDeltaChain)
		sess.SetChain(chain)
	}
	return writeCheckpoint(out, sess, chain)
}

// answer renders the solution a replay's oracle check just verified.
func answer(inst harness.Instance) string {
	switch v := inst.(type) {
	case interface{ NumComponents() int }:
		return fmt.Sprintf("%d components", v.NumComponents())
	case interface{ IsBipartite() bool }:
		return fmt.Sprintf("bipartite %v", v.IsBipartite())
	case interface{ Weight() int64 }:
		return fmt.Sprintf("forest weight %d", v.Weight())
	case interface{ Size() int }:
		return fmt.Sprintf("matching of %d edges", v.Size())
	}
	return "solution"
}

// resume restores a session from the checkpoint chain rooted at -resume:
// stale temp files from an interrupted checkpoint are swept, then the base
// snapshot and every delta linking to it are replayed in sequence, and a
// -resume-machines re-shard is applied. The returned chain is non-nil only
// when -checkpoint will extend it; mpcstream checkpoints once, at the end,
// so in every other case the session is detached from the chain it came
// from.
func resume(o options, cfg session.Config, out io.Writer) (*session.Session, *snapshot.Chain, error) {
	fail := func(err error) (*session.Session, *snapshot.Chain, error) {
		return nil, nil, fmt.Errorf("resume %s: %w", o.resumeFile, err)
	}
	if swept, err := snapshot.SweepStaleTemps(o.resumeFile); err != nil {
		return fail(err)
	} else if len(swept) > 0 {
		fmt.Fprintf(out, "swept %d stale checkpoint temp file(s)\n", len(swept))
	}
	// The snapshot's meta echo, not the flags, sizes the vertex space and
	// the cluster; only the execution engine is the flags' to choose.
	cfg.Shape = session.Shape{Parallelism: o.parallelism}
	cfg.Mirror = new(session.Mirror)
	cfg.Chain = snapshot.OpenChain(o.resumeFile, o.maxDeltaChain)
	sess, ok, err := session.Resume(cfg)
	if err != nil {
		return fail(err)
	}
	if !ok {
		return fail(fmt.Errorf("no snapshot at %s", o.resumeFile))
	}
	replayed := cfg.Chain.Replayed()
	fmt.Fprintf(out, "resumed %d vertices, %d edges from %s (chain length %d, %d journaled batches of %d updates replayed)\n",
		sess.Shape().N, sess.Mirror().Graph().M(), o.resumeFile, cfg.Chain.Len(), replayed.Batches, replayed.Updates)
	if o.checkpointFile == o.resumeFile && o.resumeMachines == 0 {
		return sess, cfg.Chain, nil
	}
	sess.SetChain(nil)
	if o.resumeMachines > 0 {
		was := sess.Shape().MachineCount()
		if _, err := sess.Resize(o.resumeMachines); err != nil {
			return fail(fmt.Errorf("re-shard onto %d machines: %w", o.resumeMachines, err))
		}
		fmt.Fprintf(out, "re-sharded %d -> %d machines (VerticesPerMachine=%d)\n", was, o.resumeMachines, sess.Shape().VerticesPerMachine)
	}
	return sess, nil, nil
}

// writeCheckpoint saves the next checkpoint of the chain atomically (temp
// file, fsync, rename) — a delta when the chain was resumed from disk and
// has room, a full base otherwise — so an interrupted write never clobbers
// a previous good checkpoint with a truncated one.
func writeCheckpoint(out io.Writer, sess *session.Session, chain *snapshot.Chain) error {
	cut, err := sess.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s checkpoint written to %s (%d bytes, chain length %d)\n", cut.Kind, chain.Path(), cut.Bytes, chain.Len())
	return nil
}
