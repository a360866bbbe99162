package main

import (
	"testing"

	"dcsprint/internal/telemetry"
)

func client(name, req string, start, dur int64, detail string) telemetry.OpSpan {
	return telemetry.OpSpan{Trace: "t", Req: req, Name: name, Side: telemetry.SideClient,
		StartUs: start, DurUs: dur, Detail: detail}
}

func server(name, req string, start, dur int64, detail string) telemetry.OpSpan {
	return telemetry.OpSpan{Trace: "t", Req: req, Name: name, Side: telemetry.SideServer,
		StartUs: start, DurUs: dur, Detail: detail}
}

func TestJoinSpans(t *testing.T) {
	cl := []telemetry.OpSpan{
		client("step", "t.1", 1000, 100, ""),
		client("step", "t.2", 1200, 80, ""),
		client("create", "t.3", 1300, 5000, ""),
		client("snapshot", "t.4", 7000, 3000, ""),
		client("restore", "t.5", 10500, 4000, ""),
		client("finish", "t.6", 15000, 2000, ""),
		client("step", "t.7", 500, 90, ""),          // before the window
		client("step", "t.8", 20000, 90, ""),        // at the window's end
		client("step", "t.9", 1500, 70, "HTTP 429"), // failed op
		client("step", "t.10", 1600, 70, ""),        // no server span
	}
	sv := []telemetry.OpSpan{
		server("queue-wait", "t.1", 1010, 20, ""),
		server("step", "t.1", 1030, 30, "tick 0"),
		server("step", "t.2", 1210, 50, "tick 1"), // no queue wait recorded
		server("admission", "t.3", 1400, 1000, "create"),
		server("snapshot", "t.4", 7100, 1500, "2048 bytes"),
		server("admission", "t.5", 10600, 2500, "restore"),
		server("finish", "t.6", 15100, 500, ""),
		server("step", "t.7", 510, 10, ""),
		server("step", "t.8", 20010, 10, ""),
		server("step", "t.9", 1510, 10, ""),
		server("step", "other.1", 1010, 99, ""), // another client's request
	}
	st := joinSpans(cl, sv, 1000, 20000)

	check := func(name string, d *dist, want ...float64) {
		t.Helper()
		if d.n() != len(want) {
			t.Fatalf("%s: %d samples %v, want %v", name, d.n(), d.vals, want)
		}
		for i, w := range want {
			if d.vals[i] != w {
				t.Errorf("%s[%d] = %g, want %g", name, i, d.vals[i], w)
			}
		}
	}
	check("step overhead", &st.stepOverheadUs, 50, 30) // 100-20-30, 80-50
	check("queue wait", &st.queueWaitUs, 20)
	check("server step", &st.stepUs, 30, 50)
	check("admission", &st.admissionMs, 1, 2.5)
	check("snapshot", &st.snapshotMs, 1.5)
	check("finish", &st.finishMs, 0.5)
	check("snapshot bytes", &st.snapshotBytes, 2048)
	check("ctl overhead", &st.ctlOverheadMs, 4, 1.5, 1.5, 1.5) // create, snapshot, restore, finish
	if st.unjoined != 1 {
		t.Errorf("unjoined = %d, want 1 (t.10)", st.unjoined)
	}
}

func TestSnapshotBytes(t *testing.T) {
	if n, ok := snapshotBytes("1336211 bytes"); !ok || n != 1336211 {
		t.Errorf("got %d, %v", n, ok)
	}
	for _, bad := range []string{"", "bytes", "12 kB", "x bytes"} {
		if _, ok := snapshotBytes(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}
