package repro_test

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/console"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/trace"
)

// Enterprise: a live fleet simulation. A central console and a fleet
// of host agents run concurrently over loopback TCP, speaking the
// management-plane protocol: agents upload their week-1 traffic
// distributions, the console computes 8-partial-diversity thresholds
// and pushes them back, and the agents then monitor week 2, batching
// alerts to the console — exactly the deployment the paper assumes
// (§1: hosts "batch alerts that are sent periodically to IT").
//
// Run with:
//
//	go test -run '^Example_enterprise$' .
func Example_enterprise() {
	const fleetSize = 24
	pop, err := trace.NewPopulation(trace.Config{Users: fleetSize, Weeks: 2, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}

	srv, err := console.NewServer(console.ServerConfig{
		Policy: core.Policy{
			Heuristic: core.Percentile{Q: 0.99},
			Grouping:  core.PartialDiversity{NumGroups: 8},
		},
		ExpectedHosts: fleetSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	// Every agent connects and runs concurrently: the console
	// configures over the host IDs in ascending order, so the order
	// the agents connect in does not change the thresholds.
	var wg sync.WaitGroup
	for _, u := range pop.Users {
		wg.Add(1)
		go func(u *trace.User) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", ln.Addr().String(), console.DefaultDialTimeout)
			if err != nil {
				log.Fatal(err)
			}
			agent, err := console.Connect(console.AgentConfig{
				HostID: uint32(u.ID), Hostname: fmt.Sprintf("laptop-%02d", u.ID), Conn: conn,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := runAgent(agent, u); err != nil {
				log.Printf("host %d: %v", u.ID, err)
			}
		}(u)
	}
	wg.Wait()

	fmt.Printf("week 2 console summary (%d hosts, 8-partial policy)\n", fleetSize)
	total := 0
	for _, id := range srv.Hosts() {
		n := srv.AlertCount(id)
		total += n
		fmt.Printf("  host %2d: %3d alerts\n", id, n)
	}
	fmt.Printf("total alerts arriving at IT: %d (%.1f per host per week)\n",
		total, float64(total)/fleetSize)
	if asn := srv.Assignment(features.TCP); asn != nil {
		fmt.Printf("TCP threshold groups: %d\n", len(asn.Groups))
	}
	// Output:
	// week 2 console summary (24 hosts, 8-partial policy)
	//   host  0:  12 alerts
	//   host  1:  10 alerts
	//   host  2:  11 alerts
	//   host  3:  68 alerts
	//   host  4:  29 alerts
	//   host  5:  47 alerts
	//   host  6:   8 alerts
	//   host  7:  32 alerts
	//   host  8:   7 alerts
	//   host  9:  33 alerts
	//   host 10:  12 alerts
	//   host 11:  26 alerts
	//   host 12:  24 alerts
	//   host 13:  20 alerts
	//   host 14:   4 alerts
	//   host 15:  69 alerts
	//   host 16:  80 alerts
	//   host 17:  34 alerts
	//   host 18:  32 alerts
	//   host 19:  13 alerts
	//   host 20:  23 alerts
	//   host 21:  22 alerts
	//   host 22:  25 alerts
	//   host 23:   6 alerts
	// total alerts arriving at IT: 647 (27.0 per host per week)
	// TCP threshold groups: 7
}

// runAgent drives one connected host through the HIDS lifecycle.
func runAgent(agent *console.Agent, u *trace.User) error {
	defer agent.Close()

	m := u.Series()
	lo0, hi0 := m.WeekRange(0)
	if err := agent.UploadMatrix(m, lo0, hi0); err != nil {
		return err
	}
	if _, err := agent.WaitThresholdsEpoch(0, time.Minute); err != nil {
		return err
	}
	lo1, hi1 := m.WeekRange(1)
	for b := lo1; b < hi1; b++ {
		if err := agent.ObserveVector(b, m.Rows[b]); err != nil {
			return err
		}
		// Batch alerts to IT once per simulated day.
		if (b-lo1+1)%96 == 0 {
			if err := agent.Flush(); err != nil {
				return err
			}
		}
	}
	return agent.Flush()
}
