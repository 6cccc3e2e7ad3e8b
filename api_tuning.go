package openmpmca

import "openmpmca/internal/taskfabric"

// WithFabricPeerStealing toggles the direct domain-to-domain steal mesh
// (on by default): idle domains steal queued tasks straight from the
// most-loaded victim over worker-to-worker MCAPI channels, with the
// host as fallback broker. Off restores the purely host-brokered steal
// path as an ablation baseline — grant-for-grant identical to the
// pre-mesh fabric. Production callers leave it alone.
func WithFabricPeerStealing(on bool) TaskFabricOption { return taskfabric.WithPeerStealing(on) }
