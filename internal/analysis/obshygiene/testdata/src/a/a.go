// Package a is an obshygiene fixture: conforming setup-time
// registrations alongside each class of violation.
package a

import "obs"

// Package-level var initializer: fine.
var hits = obs.Default.Counter("a_hits")

var slow *obs.Counter

func init() {
	slow = obs.Default.Counter("a_slow") // init: fine
}

const reqName = "a_requests"

type Server struct {
	requests *obs.Counter
	depth    *obs.Counter
}

func NewServer(kind string) *Server {
	s := &Server{
		requests: obs.Default.Counter(reqName),           // named constant in a constructor: fine
		depth:    obs.Default.Histogram("a_queue_depth"), // literal in a constructor: fine
	}
	_ = obs.Default.Gauge("a_hits")      // want `metric name "a_hits" already registered at`
	_ = obs.Default.Counter("a_" + kind) // want `obs\.Counter name must be a compile-time constant`
	return s
}

func (s *Server) handle() {
	obs.Default.Counter("a_handled").Add(1) // want `obs\.Counter\("a_handled"\) called in method handle`
	s.requests.Add(1)                       // stored instrument on the hot path: fine
}

// drop registers a per-group instrument on a request path; the name rule
// reports it, and the setup rule does not report the same site again.
func (s *Server) drop(group string) {
	obs.Default.Counter("a_drop_" + group).Add(1) // want `obs\.Counter name must be a compile-time constant`
}
