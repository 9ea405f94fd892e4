// Package faultnet provides an in-process TCP proxy for failure injection:
// tests interpose it between Corona clients, servers, and coordinators to
// add latency, cut individual links, or partition the network, driving the
// failure-handling paths of §4.2 deterministically on one machine.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrProxyClosed is returned by methods of a closed proxy.
var ErrProxyClosed = errors.New("faultnet: proxy closed")

// Proxy forwards TCP connections to a target address, subject to injected
// faults. Each accepted connection becomes one link; faults apply to
// existing links and to new ones.
type Proxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	links   map[*link]struct{}
	cut     bool
	delay   time.Duration
	dropAll bool
	closed  bool

	wg sync.WaitGroup
}

type link struct {
	client net.Conn
	server net.Conn
}

// New starts a proxy listening on addr (use "127.0.0.1:0") and forwarding
// to target.
func New(addr, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, links: make(map[*link]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; clients dial this instead of the
// target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetDelay adds one-way latency to every byte transfer from now on.
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// Cut severs every current link and refuses new ones until Heal. Existing
// peers observe connection errors, exactly like a network partition that
// isolates the target.
func (p *Proxy) Cut() {
	p.mu.Lock()
	p.cut = true
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		l.client.Close()
		l.server.Close()
	}
}

// Heal allows new connections again after a Cut.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.cut = false
	p.mu.Unlock()
}

// Blackhole silently discards all traffic in both directions without
// closing connections — peers see a hang, not an error, which is what a
// heartbeat timeout must catch. The blackhole lasts for the proxy's life
// (Heal does not lift it); blackholed bytes are lost.
func (p *Proxy) Blackhole() {
	p.mu.Lock()
	p.dropAll = true
	p.mu.Unlock()
}

// Links returns the number of live proxied connections.
func (p *Proxy) Links() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.links)
}

// Close stops the proxy and severs all links.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()

	err := p.ln.Close()
	for _, l := range links {
		l.client.Close()
		l.server.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		refuse := p.cut || p.closed
		p.mu.Unlock()
		if refuse {
			conn.Close()
			continue
		}
		upstream, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			conn.Close()
			continue
		}
		l := &link{client: conn, server: upstream}
		p.mu.Lock()
		// Re-check under the registration lock: a Cut or Close that ran
		// since the pre-dial check has already snapshotted p.links, and a
		// link registered now would never be severed (Close would then
		// wait forever on the pipe goroutines).
		if p.cut || p.closed {
			p.mu.Unlock()
			conn.Close()
			upstream.Close()
			continue
		}
		p.links[l] = struct{}{}
		p.mu.Unlock()

		p.wg.Add(2)
		go p.pipe(l, conn, upstream)
		go p.pipe(l, upstream, conn)
	}
}

// pipe copies src→dst applying the injected faults, and reaps the link on
// error.
func (p *Proxy) pipe(l *link, src, dst net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			delay := p.delay
			drop := p.dropAll
			p.mu.Unlock()
			if delay > 0 {
				time.Sleep(delay)
			}
			if !drop {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
		}
		if err != nil {
			break
		}
	}
	src.Close()
	dst.Close()
	p.mu.Lock()
	delete(p.links, l)
	p.mu.Unlock()
}

// Pair connects two addresses through individual proxies, a convenience
// for symmetric partitions: traffic a→b flows through the returned ab
// proxy, and b→a through ba.
func Pair(a, b string) (ab, ba *Proxy, err error) {
	ab, err = New("127.0.0.1:0", b)
	if err != nil {
		return nil, nil, err
	}
	ba, err = New("127.0.0.1:0", a)
	if err != nil {
		ab.Close()
		return nil, nil, err
	}
	return ab, ba, nil
}
