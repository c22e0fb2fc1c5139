// Package features defines the six behavioral traffic features of the
// paper's Table 1 and the binned per-user time series ("feature
// matrices") every policy and experiment operates on.
//
// All six features are additive counters over an aggregation window
// (5 or 15 minutes in the paper), which is the property that makes
// the paper's additive attack model well defined: a bot that injects
// traffic adds to the tracked count.
package features

import "fmt"

// Feature identifies one monitored traffic feature.
type Feature int

// The features of Table 1, in canonical order.
const (
	// DNS is num-DNS-connections (botnet C&C detection; Damballa).
	DNS Feature = iota
	// TCP is num-TCP-connections (scans, DDoS; Cisco CSA).
	TCP
	// TCPSYN is num-TCP-SYN (scans, DDoS; BRO, CSA).
	TCPSYN
	// HTTP is num-HTTP-connections (clickfraud, DDoS; BRO, BlackIce).
	HTTP
	// Distinct is num-distinct-connections (scans; BRO), measured as
	// distinct destination IP addresses per window.
	Distinct
	// UDP is num-UDP-connections (scans, DDoS; Cisco CSA).
	UDP
)

// NumFeatures is the number of monitored features.
const NumFeatures = 6

// All lists every feature in canonical order.
func All() []Feature {
	return []Feature{DNS, TCP, TCPSYN, HTTP, Distinct, UDP}
}

var featureNames = [NumFeatures]string{
	"num-DNS-connections",
	"num-TCP-connections",
	"num-TCP-SYN",
	"num-HTTP-connections",
	"num-distinct-connections",
	"num-UDP-connections",
}

// String returns the paper's feature name.
func (f Feature) String() string {
	if f < 0 || int(f) >= NumFeatures {
		return fmt.Sprintf("feature(%d)", int(f))
	}
	return featureNames[f]
}

// Valid reports whether f is one of the six defined features.
func (f Feature) Valid() bool { return f >= 0 && int(f) < NumFeatures }

// Counts holds one window's values of all six features for one user.
type Counts struct {
	// DNS is num-DNS-connections: DNS queries issued.
	DNS int
	// TCP is num-TCP-connections: outbound TCP connections initiated.
	TCP int
	// TCPSYN is num-TCP-SYN: outbound SYN packets (connections plus
	// retransmissions).
	TCPSYN int
	// HTTP is num-HTTP-connections: outbound TCP connections to port
	// 80 (a subset of TCP).
	HTTP int
	// Distinct is num-distinct-connections: distinct destination IP
	// addresses contacted.
	Distinct int
	// UDP is num-UDP-connections: outbound non-DNS UDP flows
	// initiated.
	UDP int
}

// AsVector returns the counts in canonical feature order.
func (c Counts) AsVector() [NumFeatures]float64 {
	return [NumFeatures]float64{
		float64(c.DNS), float64(c.TCP), float64(c.TCPSYN),
		float64(c.HTTP), float64(c.Distinct), float64(c.UDP),
	}
}
