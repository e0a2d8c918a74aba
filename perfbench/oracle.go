package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mdv/internal/rdf"
)

// docState reads a generated document's number and memory value.
func docState(d *rdf.Document) (n, memory int) {
	n, _ = strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(d.URI, "doc"), ".rdf"))
	if info, ok := d.Find(d.QualifyID("info")); ok {
		if v, ok := info.Get("memory"); ok {
			memory, _ = strconv.Atoi(v.Literal)
		}
	}
	return n, memory
}

// finalState replays acknowledged ops, in order, over a map from document
// number to memory value: the MDP's document set at the end of the run.
func finalState(ops []*op) map[int]int {
	state := map[int]int{}
	for _, o := range ops {
		if o.kind == opDelete {
			delete(state, o.docN)
			continue
		}
		for _, d := range o.docs {
			n, m := docState(d)
			state[n] = m
		}
	}
	return state
}

// expectedCaches derives what every LMR must hold from the document set:
// a CycleProvider belongs to LMR memory mod 2 (the owner of the one rule
// matching it), and travels with its strong-closure ServerInformation.
// Each map goes from URI reference to content fingerprint.
func expectedCaches(state map[int]int, ruleCount int) [lmrCount]map[string]string {
	var want [lmrCount]map[string]string
	for i := range want {
		want[i] = map[string]string{}
	}
	for n, m := range state {
		if m >= ruleCount {
			continue // matched by no rule
		}
		for _, r := range document(n, m).Resources {
			want[ownerOf(m)][r.URIRef] = r.Fingerprint()
		}
	}
	return want
}

// compareCache lists every difference between an LMR cache and what it
// must hold: missing, stale (content differs) and unexpected resources.
func compareCache(want map[string]string, got []*rdf.Resource) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range got {
		seen[r.URIRef] = true
		fp, ok := want[r.URIRef]
		switch {
		case !ok:
			out = append(out, "unexpected "+r.URIRef)
		case fp != r.Fingerprint():
			out = append(out, "stale "+r.URIRef)
		}
	}
	for uri := range want {
		if !seen[uri] {
			out = append(out, "missing "+uri)
		}
	}
	sort.Strings(out)
	return out
}

// checkCaches compares every LMR's cache with the oracle and returns the
// mismatches, prefixed with the LMR.
func (sys *system) checkCaches(state map[int]int, ruleCount int) ([]string, error) {
	want := expectedCaches(state, ruleCount)
	var out []string
	for i, node := range sys.nodes {
		got, err := node.Resources("")
		if err != nil {
			return nil, fmt.Errorf("lmr%d resources: %w", i, err)
		}
		for _, d := range compareCache(want[i], got) {
			out = append(out, fmt.Sprintf("lmr%d: %s", i, d))
		}
	}
	return out, nil
}

// allProviders is the query the oracle sends each LMR over the wire.
const allProviders = `search CycleProvider c register c where c.serverPort >= 0`

// checkQueries asks every LMR, over its client connection, for all cached
// CycleProviders and compares the answer with the oracle's.
func (sys *system) checkQueries(state map[int]int, ruleCount int) ([]string, error) {
	want := expectedCaches(state, ruleCount)
	var out []string
	for i, r := range sys.readers {
		got, err := r.Query(allProviders)
		if err != nil {
			return nil, fmt.Errorf("lmr%d query: %w", i, err)
		}
		providers := map[string]string{}
		for uri, fp := range want[i] {
			if strings.HasSuffix(uri, "#host") {
				providers[uri] = fp
			}
		}
		for _, d := range compareCache(providers, got) {
			out = append(out, fmt.Sprintf("lmr%d query: %s", i, d))
		}
	}
	return out, nil
}
