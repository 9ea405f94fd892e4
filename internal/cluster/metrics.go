package cluster

import (
	"time"

	"corona/internal/obs"
)

// Cluster instruments live on the process-wide registry. Latencies are
// nanoseconds. RTT and distribute latencies are computed across two
// clocks when servers span machines, so recording is guarded by
// plausibleLatency to keep skewed samples out of the histograms.
var (
	// clusterHeartbeatRTT is the coordinator-observed round trip of its
	// heartbeats (send to echoed reply).
	clusterHeartbeatRTT = obs.Default.Histogram("cluster.heartbeat_rtt_ns")
	// clusterForwarded counts multicasts a member server forwarded to
	// the coordinator for sequencing.
	clusterForwarded = obs.Default.Counter("cluster.forwarded")
	// clusterDistributeNs is the coordinator-to-replica latency of a
	// sequenced event (sequencing timestamp to local apply).
	clusterDistributeNs = obs.Default.Histogram("cluster.distribute_ns")
	// clusterElectionNs is the duration of won coordinator elections.
	clusterElectionNs   = obs.Default.Histogram("cluster.election_ns")
	clusterElectionsWon = obs.Default.Counter("cluster.elections_won")
	clusterElectionsNot = obs.Default.Counter("cluster.elections_lost")

	// clusterHeartbeatMisses counts servers the coordinator's failure
	// detector reaped for exceeding the peer timeout.
	clusterHeartbeatMisses = obs.Default.Counter("cluster.heartbeat_misses")
	// clusterServersLost counts server deregistrations for any reason
	// (timeout or dropped link).
	clusterServersLost = obs.Default.Counter("cluster.servers_lost")
	// clusterHellosRefused counts peer-listener openings — registrations,
	// replica pulls, election probes — refused for speaking another
	// protocol version.
	clusterHellosRefused = obs.Default.Counter("cluster.hellos_refused")
	// clusterBackupReassigns counts backup designations, a migration's
	// target's among them: the coordinator directing a server to acquire a
	// replica it does not hold.
	clusterBackupReassigns = obs.Default.Counter("cluster.backup_reassigns")
	// clusterDesignationsFailed counts designations a server answered "not
	// interested": its acquisition of the replica failed, and the floor
	// designates again.
	clusterDesignationsFailed = obs.Default.Counter("cluster.designations_failed")
	// clusterSeqGaps counts sequence gaps replicas detected on the
	// distribute path (each heals through an acquisition).
	clusterSeqGaps = obs.Default.Counter("cluster.seq_gaps")
	// clusterCatchups counts catch-ups: acquisitions that brought a replica
	// already held forward, a gap heal's or a registration's.
	clusterCatchups = obs.Default.Counter("cluster.catchups")

	// Placement / live migration.
	clusterMigrationsStarted = obs.Default.Counter("cluster.migrations_started")
	clusterMigrationsDone    = obs.Default.Counter("cluster.migrations_done")
	clusterMigrationsFailed  = obs.Default.Counter("cluster.migrations_failed")
	// clusterMigrationNs is the coordinator-observed migration duration
	// (the target's designation sent to its confirmation received).
	clusterMigrationNs = obs.Default.Histogram("cluster.migration_ns")
	// clusterMigrateOutNs / clusterMigrateInNs are the two ends of every
	// replica pull, migration or not: Join read to last write on the
	// serving side, dial to verified payload on the pulling side.
	clusterMigrateOutNs = obs.Default.Histogram("cluster.migrate_out_ns")
	clusterMigrateInNs  = obs.Default.Histogram("cluster.migrate_in_ns")
	// clusterReplicasReleased counts directed releases of surplus
	// replicas during rebalancing.
	clusterReplicasReleased = obs.Default.Counter("cluster.replicas_released")
)

// plausibleLatency filters cross-clock timestamp differences: negative
// (skew) or over a minute (skew or a stalled queue that would say
// nothing about the path being measured).
func plausibleLatency(ns int64) bool {
	return ns >= 0 && ns < int64(time.Minute)
}
