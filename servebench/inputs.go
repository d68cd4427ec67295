package main

// Input synthesis. Every catalog is drawn from the workload seed through
// internal/synth and relabelled with stable SKU-style labels, so pins can
// name items over HTTP (the server resolves ?pin= through Graph.Lookup,
// which only works on labelled graphs).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"prefcover"
	"prefcover/internal/graph"
	"prefcover/internal/synth"
)

// variant is the cover semantics every workload solves under; the PE
// preset is Independent-fitting (Table 2).
const variant = graph.Independent

// catalog is one generated graph with its wire encodings and the
// in-process reference answer at kmax.
type catalog struct {
	g      *graph.Graph
	binary []byte
	json   []byte
	// etag is the SHA-256 of the canonical binary encoding, which the
	// registry serves as the PUT ETag.
	etag string
	ref  *prefcover.Solution
	// refCover[k] is C(ref.Order[:k]), the cover a prefix hit reports.
	refCover []float64
}

// labelFor is the label of node v.
func labelFor(v int32) string { return fmt.Sprintf("sku%07d", v) }

// newCatalog draws a PE-shaped catalog with n labelled nodes and solves
// it at kmax with the server's default options.
func newCatalog(n int, seed int64, kmax int, withJSON bool) (*catalog, error) {
	spec, err := synth.PresetGraphSpec(synth.PE, float64(n)/1921701, seed)
	if err != nil {
		return nil, err
	}
	spec.Nodes = n
	raw, err := synth.GenerateGraph(spec)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(raw.NumNodes(), raw.NumEdges())
	for v := int32(0); v < int32(raw.NumNodes()); v++ {
		b.AddLabeledNode(labelFor(v), raw.NodeWeight(v))
	}
	for v := int32(0); v < int32(raw.NumNodes()); v++ {
		dst, w := raw.OutEdges(v)
		for i, u := range dst {
			b.AddEdge(v, u, w[i])
		}
	}
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		return nil, err
	}
	c := &catalog{g: g}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return nil, err
	}
	c.binary = buf.Bytes()
	sum := sha256.Sum256(c.binary)
	c.etag = `"` + hex.EncodeToString(sum[:]) + `"`
	if withJSON {
		var jb bytes.Buffer
		if err := graph.WriteJSON(&jb, g); err != nil {
			return nil, err
		}
		c.json = jb.Bytes()
	}
	c.ref, err = prefcover.SolveContext(context.Background(), g, serverOptions(kmax, nil))
	if err != nil {
		return nil, err
	}
	c.refCover = c.ref.PrefixCover()
	return c, nil
}

// serverOptions mirrors the options /v1/solve builds from its query
// string when only variant, k and pins are given.
func serverOptions(k int, pinned []int32) prefcover.Options {
	return prefcover.Options{Lazy: true, Variant: variant, K: k, Pinned: pinned}
}
