package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mdv/internal/changelog"
	"mdv/internal/client"
	"mdv/internal/core"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/workload"
)

// syncPolicy is the changelog durability policy the benchmark's MDP runs
// with: group commit, the cmd/mdp default.
const (
	syncPolicy     = changelog.SyncGroup
	syncPolicyName = "group"
)

// system is one booted deployment: a durable MDP serving on loopback, two
// LMRs connected to it over the wire, the writer's own MDP connection and
// (churn-query) the reader's LMR connections.
type system struct {
	dir     string
	prov    *provider.Provider
	mdpAddr string
	nodes   [lmrCount]*lmr.Node
	taps    [lmrCount]*pushTap
	lmrAddr [lmrCount]string
	writer  *client.MDP
	readers [lmrCount]*client.LMR
	track   *tracker
	tr      *tracer // nil when untraced
}

// pushTap is the ProviderAPI handed to lmr.New: the node's real wire
// connection, with the push callback wrapped so the harness sees when each
// changeset has been applied. Everything else is the embedded client.
type pushTap struct {
	*client.MDP
	lmr int
	sys *system
	// lastRead is the connection's byte count at the previous push
	// (touched only on the connection's read loop).
	lastRead uint64
}

func (t *pushTap) Attach(subscriber string, apply func(seq uint64, reset bool, cs *core.Changeset) error) error {
	return t.MDP.Attach(subscriber, func(seq uint64, reset bool, cs *core.Changeset) error {
		enter := time.Now()
		err := apply(seq, reset, cs)
		exit := time.Now()
		read := t.MDP.BytesRead()
		bytes := read - t.lastRead
		t.lastRead = read
		var touched []*opRun
		if err == nil && cs != nil {
			touched = t.sys.track.applied(t.lmr, cs, exit)
		}
		if tr := t.sys.tr; tr != nil {
			tr.push(t.lmr, touched, enter, exit, bytes, err)
		}
		return err
	})
}

// boot starts a fresh system under dir, loads the rule base through the
// LMRs and preloads documents. It returns once every preloaded document
// is cached at its LMR.
func boot(dir string, s *spec, tr *tracer) (*system, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	sys := &system{dir: dir, track: newTracker(), tr: tr}
	schema := workload.Schema()
	prov, err := provider.OpenDurable("mdp", schema, filepath.Join(dir, "mdp"),
		provider.DurableOptions{Sync: syncPolicy})
	if err != nil {
		return nil, fmt.Errorf("open durable MDP: %w", err)
	}
	sys.prov = prov
	if sys.mdpAddr, err = prov.Serve("127.0.0.1:0"); err != nil {
		sys.close()
		return nil, fmt.Errorf("serve MDP: %w", err)
	}
	for i := range sys.nodes {
		conn, err := client.DialMDPConfig(sys.mdpAddr, client.Config{})
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("dial MDP for lmr%d: %w", i, err)
		}
		sys.taps[i] = &pushTap{MDP: conn, lmr: i, sys: sys}
		node, err := lmr.New("lmr"+strconv.Itoa(i), schema, sys.taps[i])
		if err != nil {
			conn.Close()
			sys.close()
			return nil, err
		}
		sys.nodes[i] = node
		if sys.lmrAddr[i], err = node.Serve("127.0.0.1:0"); err != nil {
			sys.close()
			return nil, fmt.Errorf("serve lmr%d: %w", i, err)
		}
	}
	if sys.writer, err = client.DialMDPConfig(sys.mdpAddr, client.Config{}); err != nil {
		sys.close()
		return nil, fmt.Errorf("dial writer: %w", err)
	}
	if err := sys.subscribeAll(s.rules); err != nil {
		sys.close()
		return nil, err
	}
	if err := sys.preload(s); err != nil {
		sys.close()
		return nil, err
	}
	for i := range sys.readers {
		if sys.readers[i], err = client.DialLMR(sys.lmrAddr[i]); err != nil {
			sys.close()
			return nil, fmt.Errorf("dial lmr%d: %w", i, err)
		}
	}
	return sys, nil
}

// subscribeAll loads rule i through LMR i mod 2; the two LMRs subscribe
// concurrently, each one rule at a time, as an LMR reading its rule file
// does.
func (sys *system) subscribeAll(rules []string) error {
	var wg sync.WaitGroup
	errs := make([]error, lmrCount)
	for l := 0; l < lmrCount; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < len(rules); i += lmrCount {
				t0 := time.Now()
				_, err := sys.nodes[l].AddSubscription(rules[i])
				if err != nil {
					errs[l] = fmt.Errorf("lmr%d subscribe rule %d: %w", l, i, err)
					return
				}
				if sys.tr != nil {
					sys.tr.span("lmr.subscribe", fmt.Sprintf("rule%d", i), t0, time.Now(), l)
				}
			}
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preload registers the workload's initial documents in batches and waits
// until each is cached at its owner.
func (sys *system) preload(s *spec) error {
	for _, o := range s.preload {
		run := newRun(o)
		sys.track.expect(run)
		if err := sys.writer.RegisterDocuments(o.docs); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		select {
		case <-run.done:
		case <-time.After(opDeadline):
			return fmt.Errorf("preload: batch not applied at the LMRs within %v", opDeadline)
		}
	}
	return nil
}

// close stops every component and waits for their goroutines; the data
// directory is removed.
func (sys *system) close() {
	for _, r := range sys.readers {
		if r != nil {
			r.Close()
		}
	}
	if sys.writer != nil {
		sys.writer.Close()
	}
	for i, n := range sys.nodes {
		if n != nil {
			n.Close()
		}
		if sys.taps[i] != nil {
			sys.taps[i].Close()
		}
	}
	if sys.prov != nil {
		sys.prov.Close()
	}
	os.RemoveAll(sys.dir)
}
