package dcsprint

// This file is the observability facade: the unified metrics registry,
// lifecycle tracer, run observers and the live exposition server. The
// implementation lives in internal/telemetry; see DESIGN.md's "Telemetry"
// section.

import (
	"dcsprint/internal/core"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
)

type (
	// MetricRegistry holds counters, gauges and histograms; see
	// telemetry.Registry.
	MetricRegistry = telemetry.Registry
	// MetricLabels is an optional label set on a metric child.
	MetricLabels = telemetry.Labels
	// Tracer records sprint-lifecycle spans and points.
	Tracer = telemetry.Tracer
	// TraceRecord is the JSONL wire form of one span or point.
	TraceRecord = telemetry.TraceRecord
	// Observer receives run activity as it happens; see sim.Observer.
	Observer = sim.Observer
	// Instrument is the standard Observer feeding a registry and tracer.
	Instrument = sim.Instrument
	// TelemetryServer exposes /metrics, /healthz, /trace.jsonl and pprof.
	TelemetryServer = telemetry.Server
)

// NewMetricRegistry returns an empty metrics registry.
func NewMetricRegistry() *MetricRegistry { return telemetry.NewRegistry() }

// DefaultMetricRegistry returns the process-wide registry that always-on
// probes (per-run counters) feed.
func DefaultMetricRegistry() *MetricRegistry { return telemetry.Default() }

// NewTracer returns an empty lifecycle tracer.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// NewInstrument returns the standard run observer over a registry and an
// optional tracer.
func NewInstrument(reg *MetricRegistry, tr *Tracer) *Instrument {
	return sim.NewInstrument(reg, tr)
}

// RunObserved executes one scenario with a telemetry observer attached; the
// Result is bit-for-bit identical to Run's.
func RunObserved(sc Scenario, obs Observer) (*Result, error) { return sim.RunObserved(sc, obs) }

// StartTelemetryServer serves the registry (and optional tracer) over HTTP
// for live scrapes; addr ":0" picks a free port.
func StartTelemetryServer(addr string, reg *MetricRegistry, tr *Tracer) (*TelemetryServer, error) {
	return telemetry.StartServer(addr, reg, tr)
}

// TraceEventRecord converts one controller event into tracer activity; see
// core.TraceEvent.
func TraceEventRecord(tr *Tracer, e Event) bool { return core.TraceEvent(tr, e) }
