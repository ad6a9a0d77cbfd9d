package gossip

import "repro/internal/telemetry"

// Gossip telemetry: round cadence, anti-entropy repair pressure
// (digest mismatches), merge activity, and failure-detector churn.
var (
	mRounds = telemetry.NewCounter("gossip_rounds_total",
		"Gossip rounds completed.")
	mSent = telemetry.NewCounter("gossip_frames_sent_total",
		"Gossip frames handed to the transport.")
	mRecv = telemetry.NewCounter("gossip_frames_received_total",
		"Gossip frames decoded and handled.")
	mBadFrames = telemetry.NewCounter("gossip_bad_frames_total",
		"Inbound gossip frames rejected (checksum, truncation, bounds).")
	mDigestMismatch = telemetry.NewCounter("gossip_digest_mismatches_total",
		"Digest comparisons that disagreed and triggered anti-entropy repair.")
	mEquivocations = telemetry.NewCounter("gossip_equivocations_total",
		"Contributions rejected for same-version different-bytes conflicts.")
	mEntriesApplied = telemetry.NewCounter("gossip_entries_applied_total",
		"Remote contributions joined into the local store.")
	mClusterMerges = telemetry.NewCounter("gossip_cluster_merges_total",
		"Fixed-order cluster merges served (ClusterRead calls).")
	mSendFailures = telemetry.NewCounter("gossip_send_failures_total",
		"Transport send failures.")
	mSuspected = telemetry.NewCounter("gossip_peers_suspected_total",
		"Peers evicted by the failure detector.")
	mOutboundDropped = telemetry.NewCounter("gossip_outbound_dropped_total",
		"Outbound frames dropped on a full queue (repaired by later rounds).")
	mStalls = telemetry.NewCounter("gossip_round_stalls_total",
		"Watchdog detections of a stalled round loop.")
	mViewSize = telemetry.NewGauge("gossip_view_size",
		"Current membership view size.")
	mStoreEntries = telemetry.NewGauge("gossip_store_entries",
		"Contributions held in the local store, set every round.")
	mRoundDur = telemetry.NewHistogram("gossip_round_duration_seconds",
		"Wall time per gossip round.", telemetry.DurationBuckets())
)
