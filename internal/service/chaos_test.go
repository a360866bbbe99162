package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/chaosnet"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
)

// TestStreamFailoverThroughChaosProxy drives a full session through a
// fault-injecting proxy that randomly severs and resets connections and
// splits writes mid-frame. Every break is healed with Client.Resume, a forced
// partition mid-run guarantees at least one failover even on a kind seed, and
// the final Result must still be bit-identical to the batch run — the
// seq/ack protocol may neither lose nor double-apply a tick no matter where
// the connection dies.
func TestStreamFailoverThroughChaosProxy(t *testing.T) {
	sc := yahooScenario(t, "chaos")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Durability: DurabilityOptions{StateDir: t.TempDir(), SnapshotEvery: 64}})
	defer m.Close()
	srv := &http.Server{Handler: m.Handler()}
	defer srv.Close()
	go srv.Serve(ln) //nolint:errcheck

	p, err := chaosnet.Start(chaosnet.Config{
		Target:    ln.Addr().String(),
		Seed:      42,
		DropProb:  0.004,
		ResetProb: 0.002,
		ChunkMax:  64,
	})
	if err != nil {
		t.Fatalf("chaosnet: %v", err)
	}
	defer p.Close()

	ctx := context.Background()
	// Unary ops go straight to the daemon; the chaos path is the stream.
	direct := &Client{Base: "http://" + ln.Addr().String()}
	chaos := &Client{
		Base:     "http://" + p.Addr(),
		HTTP:     &http.Client{Transport: &http.Transport{}},
		Registry: telemetry.NewRegistry(),
		Retry:    RetryPolicy{MaxAttempts: 8, MaxBackoff: 50 * time.Millisecond, OpTimeout: 2 * time.Second},
	}

	s, err := direct.Create(ctx, yahooSpec("chaos"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := chaos.Resume(ctx, s.ID, -1)
	if err != nil {
		t.Fatalf("initial attach: %v", err)
	}

	n := sc.Trace.Len()
	failovers, partitioned := 0, false
	for i := int(st.Tick()); i < n; {
		if i >= n/2 && !partitioned {
			// Hard mid-run break: sever every live connection, then heal
			// so the resume below can get through.
			partitioned = true
			p.Partition(true)
			p.Partition(false)
		}
		_, err := st.StepContext(ctx, sc.Trace.Samples[i])
		if err == nil {
			i++
			continue
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			// The proxy only breaks transport; a server-side error line
			// means the protocol itself went wrong.
			t.Fatalf("step %d: server error through chaos proxy: %v", i, err)
		}
		if failovers++; failovers > 500 {
			t.Fatalf("step %d: %d failovers and not done — not converging", i, failovers)
		}
		st.Close() //nolint:errcheck // the conn is already dead
		st, err = chaos.Resume(ctx, s.ID, st.LastAcked())
		if err != nil {
			t.Fatalf("resume after break at step %d: %v", i, err)
		}
		// Ticks in (lastAcked, hello.Tick) were applied and journaled but
		// their acks died on the wire; the server's greeting skips us past
		// them instead of double-running.
		i = int(st.Tick())
	}
	st.Close() //nolint:errcheck

	got, err := direct.Finish(ctx, s.ID)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(got, NewResultView(want)) {
		t.Fatalf("result after %d failovers differs from the batch run", failovers)
	}
	if failovers < 1 {
		t.Fatal("forced partition produced no failover — the test exercised nothing")
	}
	if v := chaos.reconnectCounter().Value(); v != float64(failovers)+1 {
		t.Fatalf("reconnects = %v, want %d", v, failovers+1)
	}
	stats := p.Stats()
	t.Logf("chaos: %d failovers, proxy stats %+v", failovers, stats)
}
