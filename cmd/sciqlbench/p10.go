package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/pgwire"
	"repro/sciql"
)

// runP10 measures the sciqld network stack end to end: an in-process
// server on a loopback listener, fleets of 1, 64 and 1024 persistent
// pgwire clients each running the full simple-query cycle (frame,
// parse, execute, stream DataRows, ReadyForQuery) on a cheap point
// select. Connections are established outside the timed window; the
// per-fleet qps therefore isolates protocol + session overhead, and
// the 1-client point doubles as a wire round-trip latency figure.
func runP10() {
	if !want("P10") {
		return
	}
	fleets := []int{1, 64, 1024}
	total := int64(4096)
	if *quick {
		fleets = []int{1, 16, 128}
		total = 512
	}
	header("P10", fmt.Sprintf("sciqld wire throughput over loopback (fleets %v, GOMAXPROCS=%d)",
		fleets, runtime.GOMAXPROCS(0)))

	db := sciql.Open()
	db.MustExec(`CREATE ARRAY npoint (x INTEGER DIMENSION[64], y INTEGER DIMENSION[64], v FLOAT DEFAUL` + `T 0.0);
		UPDATE npoint SET v = x * 64 + y`)
	srv := server.New(db, server.Config{PgAddr: "127.0.0.1:0", MaxConns: 4096})
	if err := srv.Start(); err != nil {
		fail("P10", err)
	}
	defer srv.Shutdown(nil)
	addr := srv.PgAddr()

	const q = `SELECT v FROM npoint WHERE x = 7 AND y = 9`
	fmt.Printf("%-10s %10s %12s %10s %10s\n", "clients", "queries", "connect ms", "wall ms", "qps")
	for _, fleet := range fleets {
		perClient := total / int64(fleet)
		if perClient < 1 {
			perClient = 1
		}

		// Dial the whole fleet before starting the clock: connection
		// setup (TCP + startup handshake + session open) is measured
		// separately so qps reflects steady-state query traffic.
		tConn := time.Now()
		clients := make([]*pgwire.Client, fleet)
		for i := range clients {
			c, err := pgwire.Dial(addr, pgwire.ClientConfig{User: "bench", Database: "sciql"})
			if err != nil {
				fail("P10", err)
			}
			clients[i] = c
		}
		connectMs := float64(time.Since(tConn).Microseconds()) / 1000

		var done int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, c := range clients {
			wg.Add(1)
			go func(c *pgwire.Client) {
				defer wg.Done()
				<-start
				for i := int64(0); i < perClient; i++ {
					rs, err := c.SimpleQuery(q)
					if err != nil {
						fail("P10", err)
					}
					if len(rs) != 1 || len(rs[0].Rows) != 1 {
						fail("P10", fmt.Errorf("point select returned unexpected result shape"))
					}
					atomic.AddInt64(&done, 1)
				}
			}(c)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		wall := time.Since(t0)
		for _, c := range clients {
			c.Close()
		}

		fmt.Printf("%-10d %10d %12.1f %10.1f %10.0f\n", fleet, done, connectMs, ms(wall), float64(done)/wall.Seconds())
	}
	fmt.Println()
}
