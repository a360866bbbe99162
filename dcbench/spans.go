package main

import (
	"strconv"
	"strings"

	"dcsprint/internal/telemetry"
)

// stages holds the per-layer samples a traced run yields once every client
// span has been joined with the daemon spans that share its request id.
type stages struct {
	stepOverheadUs dist // client step minus server queue-wait+step: HTTP, NDJSON, client
	ctlOverheadMs  dist // client unary op minus its server span
	queueWaitUs    dist
	stepUs         dist
	admissionMs    dist // create and restore
	snapshotMs     dist
	finishMs       dist
	snapshotBytes  dist
	unjoined       int // client spans with no server span under their request id
}

// ctlServerSpan names the server span that serves each unary client op.
var ctlServerSpan = map[string]string{
	"create":   "admission",
	"restore":  "admission",
	"snapshot": "snapshot",
	"finish":   "finish",
}

// joinSpans joins client spans with server spans by request id and
// computes each stage's self time. Only client spans starting inside
// [fromUs, toUs) count, and only server spans joined to one of them, so
// set-up traffic and untraced requests drop out. Failed client ops (those
// with an error detail) are skipped: their timing is not a stage's.
func joinSpans(client, server []telemetry.OpSpan, fromUs, toUs int64) stages {
	byReq := map[string][]telemetry.OpSpan{}
	for _, s := range server {
		if s.Side == telemetry.SideServer && s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	var st stages
	for _, c := range client {
		if c.Side != telemetry.SideClient || c.StartUs < fromUs || c.StartUs >= toUs || c.Detail != "" {
			continue
		}
		kids := byReq[c.Req]
		if len(kids) == 0 {
			st.unjoined++
			continue
		}
		var covered int64
		switch c.Name {
		case "step":
			var stepped bool
			for _, k := range kids {
				switch k.Name {
				case "queue-wait":
					st.queueWaitUs.add(float64(k.DurUs))
					covered += k.DurUs
				case "step":
					st.stepUs.add(float64(k.DurUs))
					covered += k.DurUs
					stepped = true
				}
			}
			if !stepped {
				st.unjoined++
				continue
			}
			st.stepOverheadUs.add(float64(c.DurUs - covered))
		default:
			want, ok := ctlServerSpan[c.Name]
			if !ok {
				continue
			}
			found := false
			for _, k := range kids {
				if k.Name != want {
					continue
				}
				found = true
				covered += k.DurUs
				ms := float64(k.DurUs) / 1e3
				switch want {
				case "admission":
					st.admissionMs.add(ms)
				case "snapshot":
					st.snapshotMs.add(ms)
					if n, ok := snapshotBytes(k.Detail); ok {
						st.snapshotBytes.add(float64(n))
					}
				case "finish":
					st.finishMs.add(ms)
				}
			}
			if !found {
				st.unjoined++
				continue
			}
			st.ctlOverheadMs.add(float64(c.DurUs-covered) / 1e3)
		}
	}
	return st
}

// snapshotBytes parses the daemon's "<n> bytes" snapshot span detail.
func snapshotBytes(detail string) (int64, bool) {
	num, ok := strings.CutSuffix(detail, " bytes")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(num, 10, 64)
	return n, err == nil
}
