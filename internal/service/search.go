package service

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file implements the paper's prototype document search service
// (Figure 1): protocol gateways fan a query out to the index server
// partitions, translate the returned document identifiers through the
// document server partitions, and compile the final result.

// Well-known service names of the search application.
const (
	IndexService = "Index"
	DocService   = "Doc"
)

// IndexHandler returns a Handler for an index server partition: for a
// query it returns a comma-separated list of document IDs, each tagged
// with the doc partition that stores it ("<docPart>:<docID>").
func IndexHandler(docPartitions int) Handler {
	return func(partition int32, payload []byte) ([]byte, error) {
		q := string(payload)
		h := fnv.New32a()
		fmt.Fprintf(h, "%s/%d", q, partition)
		seed := h.Sum32()
		// Two hits per index partition, deterministic per query.
		var ids []string
		for i := 0; i < 2; i++ {
			doc := (seed + uint32(i)*2654435761) % 1_000_000
			dp := doc % uint32(docPartitions)
			ids = append(ids, fmt.Sprintf("%d:%d", dp, doc))
		}
		return []byte(strings.Join(ids, ",")), nil
	}
}

// DocHandler returns a Handler for a document server partition: it
// translates a comma-separated document ID list into human-readable
// descriptions.
func DocHandler() Handler {
	return func(partition int32, payload []byte) ([]byte, error) {
		ids := strings.Split(string(payload), ",")
		out := make([]string, 0, len(ids))
		for _, id := range ids {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			out = append(out, fmt.Sprintf("doc[%s]@p%d", id, partition))
		}
		return []byte(strings.Join(out, ";")), nil
	}
}

// Gateway is the protocol gateway of the search service: it owns the
// query workflow of Figure 1 (steps 1-4).
type Gateway struct {
	rt              *Runtime
	indexPartitions int
	retries         int
}

// NewGateway creates a gateway over a consumer runtime.
func NewGateway(rt *Runtime, indexPartitions, retries int) *Gateway {
	if retries < 0 {
		retries = 0
	}
	return &Gateway{rt: rt, indexPartitions: indexPartitions, retries: retries}
}

// QueryResult is the outcome of one search query.
type QueryResult struct {
	Result  string
	Err     error
	Elapsed time.Duration
}

// Query runs one search: fan out to every index partition, group returned
// document IDs by doc partition, fetch descriptions, and compile. cb runs
// exactly once on the simulation goroutine.
func (g *Gateway) Query(q string, cb func(QueryResult)) {
	start := g.rt.eng.Now()
	finish := func(res string, err error) {
		cb(QueryResult{Result: res, Err: err, Elapsed: g.rt.eng.Now() - start})
	}
	type idxOut struct {
		part int32
		ids  string
		err  error
	}
	remaining := g.indexPartitions
	outs := make([]idxOut, 0, g.indexPartitions)
	for p := 0; p < g.indexPartitions; p++ {
		p32 := int32(p)
		g.invokeWithRetry(IndexService, p32, []byte(q), g.retries, func(b []byte, err error) {
			outs = append(outs, idxOut{part: p32, ids: string(b), err: err})
			remaining--
			if remaining > 0 {
				return
			}
			// All index partitions answered; any failure fails the query.
			byDocPart := map[int32][]string{}
			for _, o := range outs {
				if o.err != nil {
					finish("", fmt.Errorf("index p%d: %w", o.part, o.err))
					return
				}
				for _, id := range strings.Split(o.ids, ",") {
					dp, doc, ok := splitDocID(id)
					if !ok {
						continue
					}
					byDocPart[dp] = append(byDocPart[dp], doc)
				}
			}
			g.fetchDocs(byDocPart, finish)
		})
	}
}

func splitDocID(id string) (part int32, doc string, ok bool) {
	i := strings.IndexByte(id, ':')
	if i <= 0 {
		return 0, "", false
	}
	p, err := strconv.Atoi(id[:i])
	if err != nil {
		return 0, "", false
	}
	return int32(p), id[i+1:], true
}

// fetchDocs contacts each referenced doc partition and joins the results.
func (g *Gateway) fetchDocs(byPart map[int32][]string, finish func(string, error)) {
	if len(byPart) == 0 {
		finish("", nil)
		return
	}
	remaining := len(byPart)
	var descs []string
	var failed error
	// Ascending partition order: each fetch is a send, and sends in Go's map
	// order would make the run depend on the map seed, not the engine's.
	parts := make([]int32, 0, len(byPart))
	for part := range byPart {
		parts = append(parts, part)
	}
	slices.Sort(parts)
	for _, part := range parts {
		payload := []byte(strings.Join(byPart[part], ","))
		g.invokeWithRetry(DocService, part, payload, g.retries, func(b []byte, err error) {
			if err != nil && failed == nil {
				failed = fmt.Errorf("doc p%d: %w", part, err)
			}
			if err == nil {
				descs = append(descs, string(b))
			}
			remaining--
			if remaining == 0 {
				if failed != nil {
					finish("", failed)
					return
				}
				finish(strings.Join(descs, ";"), nil)
			}
		})
	}
}

// invokeWithRetry retries failed invocations; each retry re-runs service
// lookup, so once the membership service has removed a failed provider the
// retry lands on a live replica or the proxy path.
func (g *Gateway) invokeWithRetry(svc string, part int32, payload []byte, retries int, cb func([]byte, error)) {
	g.rt.Invoke(svc, part, payload, Func(func(b []byte, err error) {
		if err != nil && retries > 0 {
			g.invokeWithRetry(svc, part, payload, retries-1, cb)
			return
		}
		cb(b, err)
	}), 0)
}
