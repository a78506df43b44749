package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flow"
	"repro/internal/registry"
	"repro/internal/transport"
)

// registryCold is the daemon deployment in one process and the
// per-message path: a registry placing every shard on two suppliers
// that serve one fixture of many tiny single-chunk segments. There are
// more MOFs than a supplier's FileCache (128) and IndexCache (256)
// entries, and the DataCache is far below the working set, so
// column-order fetches miss. The merger resolves every spec through the
// registry, runs AIMD windows and arms hedging at the jbsmergerd -hedge
// defaults; both suppliers run flow admission.
type registryCold struct {
	grid
	cacheBytes int64
	reg        *registry.Server
	sups       []*daemon.Supplier
	proxy      *countingProxy
	rc         *registry.Client
}

func newRegistryCold(seed uint64, tiny bool, tr *tracer) *registryCold {
	// A 1 MiB DataCache against a 20 MiB working set.
	w := &registryCold{grid: grid{tasks: 320, parts: 64, segBytes: 1 << 10, seed: seed, callers: callers(), tr: tr},
		cacheBytes: 1 << 20}
	if tiny {
		w.tasks, w.parts, w.cacheBytes = 140, 4, 64<<10
	}
	return w
}

func (w *registryCold) setup(dir string) error {
	if err := w.writeFixture(dir); err != nil {
		return err
	}
	var err error
	if w.reg, err = registry.NewServer(registry.ServerConfig{Addr: "127.0.0.1:0", Replicas: 2}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		s, err := daemon.StartSupplier(daemon.SupplierConfig{
			RegistryAddr:   w.reg.Addr(),
			MOFDir:         dir,
			DataCacheBytes: w.cacheBytes,
			Flow:           &flow.Config{},
		})
		if err != nil {
			return err
		}
		w.sups = append(w.sups, s)
	}
	// The merger's registry client talks through a proxy that counts its
	// requests: every one is an ownership-map fetch, so the count is the
	// Resolver's cache misses.
	if w.proxy, err = newCountingProxy(w.reg.Addr()); err != nil {
		return err
	}
	w.rc = registry.NewClient(w.proxy.addr())
	resolver := registry.NewResolver(w.rc, 0)
	mc := core.MergerConfig{
		Transport:  transport.NewTCP(),
		MaxRetries: 8, // the jbsmergerd default
		Flow:       &flow.Config{},
		Hedge:      &flow.HedgeConfig{},
	}
	tr := w.tr
	mc.Resolver = func(spec core.FetchSpec) (string, error) {
		id, parent := w.parentOf(spec)
		s := tr.begin("registry.resolve", id, parent)
		defer tr.end(s)
		return resolver.Resolve(spec.MapTask)
	}
	mc.Replicas = func(spec core.FetchSpec) []string {
		id, parent := w.parentOf(spec)
		s := tr.begin("registry.replicas", id, parent)
		defer tr.end(s)
		set, err := resolver.ResolveReplicas(spec.MapTask)
		if err != nil {
			return nil // as in daemon.RunMergerJob: no replicas known, no hedge
		}
		return set
	}
	if w.m, err = core.NewNetMerger(mc); err != nil {
		return err
	}
	w.buildSpecs("")
	return warmUp(w)
}

func (w *registryCold) counts() map[string]int64 {
	return map[string]int64{"registry.map_fetches": w.proxy.requests.Load()}
}

func (w *registryCold) close() error {
	var errs []error
	if w.m != nil {
		errs = append(errs, w.m.Close())
	}
	if w.rc != nil {
		errs = append(errs, w.rc.Close())
	}
	for _, s := range w.sups {
		errs = append(errs, s.Close())
	}
	if w.proxy != nil {
		errs = append(errs, w.proxy.close())
	}
	if w.reg != nil {
		errs = append(errs, w.reg.Close())
	}
	return errors.Join(errs...)
}

// countingProxy forwards loopback TCP connections to a registry server
// and counts the newline-terminated JSON requests sent through it.
type countingProxy struct {
	lis      net.Listener
	target   string
	requests atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
	wg     sync.WaitGroup
}

func newCountingProxy(target string) (*countingProxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{lis: lis, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.lis.Addr().String() }

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			s.Close()
			return
		}
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			defer s.Close()
			p.copyCounting(s, c)
		}()
		go func() {
			defer p.wg.Done()
			defer c.Close()
			_, _ = io.Copy(c, s) // ends when either side closes
		}()
	}
}

// copyCounting copies client bytes to the server, counting newlines.
func (p *countingProxy) copyCounting(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.requests.Add(int64(bytes.Count(buf[:n], []byte{'\n'})))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// close stops accepting, closes every proxied connection and waits for
// the copy goroutines to end.
func (p *countingProxy) close() error {
	err := p.lis.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}
