package dcsprint

// This file is the campaign facade: deterministic scenario sweeps at scale.
// The engine (internal/campaign) shards a grid across a bounded worker pool
// with sim.Parallel's order and first-error semantics, streams progress
// metrics into a telemetry registry, and memoizes Oracle searches behind a
// content-addressed scenario fingerprint cache. See DESIGN.md's "Campaign
// engine" section.

import (
	"context"
	"time"

	"dcsprint/internal/campaign"
)

type (
	// CampaignOptions configures a sweep: worker count, shard size,
	// progress metrics, memoization cache and oracle pruning; see
	// campaign.Options.
	CampaignOptions = campaign.Options
	// CampaignResult summarizes a completed sweep; see campaign.Report.
	CampaignResult = campaign.Report
	// OracleCache memoizes oracle-search outcomes across campaigns and,
	// through its on-disk codec, across processes; see campaign.Cache.
	OracleCache = campaign.Cache
	// CampaignKey is a content-addressed scenario fingerprint; see
	// campaign.Key.
	CampaignKey = campaign.Key
)

// Sweep runs fn over every item on the campaign engine and returns the
// results in item order; see campaign.Sweep for the full contract
// (order-preserving, cancel-on-first-error, bounded queue memory).
func Sweep[T, R any](ctx context.Context, opts CampaignOptions, items []T, fn func(context.Context, T) (R, error)) ([]R, *CampaignResult, error) {
	return campaign.Sweep(ctx, opts, items, fn)
}

// NewOracleCache returns an empty in-memory oracle memoization cache.
func NewOracleCache() *OracleCache { return campaign.NewCache() }

// OpenOracleCache loads (or, for a missing file, creates empty) an oracle
// cache bound to an on-disk path; Save persists it atomically.
func OpenOracleCache(path string) (*OracleCache, error) { return campaign.OpenCache(path) }

// ScenarioFingerprint returns the content-addressed cache key of a scenario
// (plant + workload; the strategy and name are excluded). ok is false when
// the scenario is not memoizable (fault-injection campaigns).
func ScenarioFingerprint(sc Scenario) (CampaignKey, bool) { return campaign.Fingerprint(sc) }

// OracleSearch finds the optimal constant degree bound with perfect burst
// knowledge (the paper's Oracle strategy) on the campaign engine:
// cancellable, parallel per opts, and memoized when opts.Cache is set. With
// default options the outcome is bit-identical to sim.OracleSearch.
func OracleSearch(ctx context.Context, opts CampaignOptions, sc Scenario) (*OracleResult, error) {
	return campaign.OracleSearch(ctx, opts, sc)
}

// BuildBoundTable populates the Prediction strategy's lookup table by
// Oracle-searching a grid of parametric bursts on the campaign engine: the
// grid cells shard across the worker pool and each cell's search is memoized
// per opts. With default options the table is bit-identical to
// sim.BuildBoundTable's.
func BuildBoundTable(ctx context.Context, opts CampaignOptions, base Scenario,
	mk func(degree float64, d time.Duration) (*Series, error),
	durations []time.Duration, degrees []float64) (*BoundTable, error) {
	return campaign.BuildBoundTable(ctx, opts, base, mk, durations, degrees)
}
