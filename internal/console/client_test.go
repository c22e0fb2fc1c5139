package console

import (
	"fmt"
	"net"
	"slices"
	"time"

	"repro/internal/features"
	"repro/internal/stats"
)

// The client and server helpers below are what the tests drive the
// protocol with; the commands reach the same paths through Connect,
// UploadMatrix, WaitThresholdsEpoch and ObserveVector.

// Dial connects a single-shot agent to the console at addr over TCP
// and completes the hello handshake.
func Dial(addr string, hostID uint32, hostname string) (*Agent, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("console: dialing %s: %w", addr, err)
	}
	return Connect(AgentConfig{HostID: hostID, Hostname: hostname, Conn: conn})
}

// UploadDistribution ships one feature's training samples through the
// path UploadMatrix takes: a sorted copy, and samples the console
// would refuse (none, or any NaN or ±Inf) rejected before they can
// cost the agent its link.
func (a *Agent) UploadDistribution(f features.Feature, samples []float64) error {
	if !f.Valid() {
		return fmt.Errorf("console: invalid feature %d", int(f))
	}
	sorted := slices.Clone(samples)
	stats.SortCounts(sorted)
	return a.uploadDistribution(f, sorted, a.targetUploadEpoch())
}

// WaitThresholds blocks until the console pushes thresholds of any
// epoch (or the timeout expires).
func (a *Agent) WaitThresholds(timeout time.Duration) (Thresholds, error) {
	return a.WaitThresholdsEpoch(0, timeout)
}

// ObserveWindow is ObserveVector on one window's feature counts.
func (a *Agent) ObserveWindow(bin int, counts features.Counts) error {
	return a.ObserveVector(bin, counts.AsVector())
}

// Reconnects returns how many times the agent healed a lost link.
func (a *Agent) Reconnects() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconnects
}

// Configured reports whether thresholds have been computed.
func (s *Server) Configured() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushed
}

// ActiveConns returns the size of the server's conns table. A host
// that disconnects must eventually disappear from it, or it could
// never reconnect; the reconnect regression tests watch this.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
