package serve

// Hierarchy replication, node side. The cluster router keeps each shard's
// setup cache hot on its primary owner by hashing; replication keeps a
// configurable number of secondary owners warm so a hedged or failed-over
// solve does not pay the AMG setup again. Replication is push-only: after
// a solve succeeds, the router replays the request it forwarded (body as
// received, gzip included, query and headers) to each replica's
// POST /internal/warm. The node reads it with ReadRequest, exactly as its
// /solve or /solve/matrix handler would, builds the hierarchy under the
// same key, and stops before the solve. Setup is deterministic, so the
// replica's hierarchy is the primary's. A node keeps no copy of an
// upload's bytes and never calls a peer. A warm runs under the same
// admission control and worker semaphore as a solve: a draining node
// (leaving the ring) refuses it, and it queues behind real traffic
// rather than starving it.

// WarmUpload is the query parameter that, set non-empty, marks a warm
// replaying a /solve/matrix upload; without it the warm's body is a
// /solve JSON body.
const WarmUpload = "upload"

// WarmResponse reports a warm's outcome.
type WarmResponse struct {
	Key string `json:"key"`
	// Cached is true when the hierarchy was already resident (the warm
	// was a no-op).
	Cached bool `json:"cached"`
	// SetupNS is the build time this warm paid (0 when Cached).
	SetupNS int64 `json:"setup_ns"`
}
