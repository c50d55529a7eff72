package experiments

import (
	"time"

	"predstream/internal/dsps"
)

// EngineKnobs carries the stream engine's data-plane tuning through an
// experiment config. Zero values keep the engine defaults (AckerShards 8,
// BatchSize 32, FlushInterval 1ms — see DESIGN.md "Data plane").
type EngineKnobs struct {
	// AckerShards is the acker's lock-stripe count, rounded up to a power
	// of two.
	AckerShards int
	// BatchSize is the data-plane micro-batch size in tuples, clamped to
	// the queue size.
	BatchSize int
	// FlushInterval is the spout partial-batch flush deadline.
	FlushInterval time.Duration
}

// apply copies the knobs onto a cluster config; zero fields are left for
// the engine's withDefaults.
func (k EngineKnobs) apply(cfg *dsps.ClusterConfig) {
	cfg.AckerShards = k.AckerShards
	cfg.BatchSize = k.BatchSize
	cfg.FlushInterval = k.FlushInterval
}
