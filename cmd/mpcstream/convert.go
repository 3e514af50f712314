package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/streamio"
	"repro/internal/trace"
)

// multiSink fans converted batches out to every output format requested.
type multiSink []trace.Sink

func (m multiSink) WriteBatch(b graph.Batch) error {
	for _, s := range m {
		if err := s.WriteBatch(b); err != nil {
			return err
		}
	}
	return nil
}

// runConvert streams a SNAP-style edge list into the requested trace
// (binary) and/or stream (text) outputs. Input and outputs are all
// streamed; memory is bounded by the live-edge window plus one segment.
func runConvert(o options, out io.Writer) error {
	in, tracePath, streamPath := o.convertFile, o.traceFile, o.streamFile
	inf, err := os.Open(in)
	if err != nil {
		return err
	}
	defer inf.Close()
	var sinks multiSink
	var tw *trace.Writer
	var sw *streamio.Writer
	var outs []*os.File
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		outs = append(outs, f)
		if tw, err = trace.NewWriter(f, trace.WriterOptions{}); err != nil {
			return err
		}
		sinks = append(sinks, tw)
	}
	if streamPath != "" {
		f, err := os.Create(streamPath)
		if err != nil {
			return err
		}
		outs = append(outs, f)
		sw = streamio.NewWriter(f)
		sinks = append(sinks, sw)
	}
	stats, err := trace.ConvertEdgeList(inf, sinks, trace.ConvertOptions{Window: o.window})
	if err != nil {
		return err
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return err
		}
	}
	if sw != nil {
		if err := sw.Flush(); err != nil {
			return err
		}
	}
	for _, f := range outs {
		if err := f.Close(); err != nil {
			return err
		}
	}
	weighted := "unweighted"
	if stats.Weighted {
		weighted = "weighted"
	}
	fmt.Fprintf(out, "converted %d lines: %d batches, %d updates on %d vertices (%s)\n",
		stats.Lines, stats.Batches, stats.Updates, stats.N, weighted)
	fmt.Fprintf(out, "normalized: %d duplicates, %d self-loops skipped; %d window expirations emitted\n",
		stats.Duplicates, stats.SelfLoops, stats.Expired)
	return nil
}
