// Counter name registry. Every counter the runtime increments is
// declared here, once, as a typed constant; call sites reference the
// constant instead of retyping the string. The muninvet counterreg
// analyzer flags any Add/Inc/Get/Counter call whose name literal is
// not registered, and internal/analysis/regsync cross-checks this
// registry against the docs/ARCHITECTURE.md counters table, so a
// counter added in code without a registry entry and a docs row fails
// the build rather than silently drifting.
package stats

// Counter names, grouped by the layer that owns them. The layer
// strings match the Layer column of the ARCHITECTURE.md counters
// table.
const (
	// protocol: application-level accesses and coherence traffic.
	CReads                 = "reads"
	CWrites                = "writes"
	CFaultRead             = "fault.read"
	CFaultWrite            = "fault.write"
	CFetchRetry            = "fetch.retry"
	CFetchServed           = "fetch.served"
	CFwdRead               = "fwd.read"
	CFwdWrite              = "fwd.write"
	CFwdNack               = "fwd.nack"
	CTwin                  = "twin"
	CWriteBuffered         = "write.buffered"
	CDiffSent              = "diff.sent"
	CDiffBytes             = "diff.bytes"
	CBatchSent             = "batch.sent"
	CBatchObjs             = "batch.objs"
	CBatchBytes            = "batch.bytes"
	CFlushPipelined        = "flush.pipelined"
	CEagerPush             = "eager.push"
	CConsumerStall         = "consumer.stall"
	CApplyReceived         = "apply.received"
	CApplyGap              = "apply.gap"
	CInvReceived           = "inv.received"
	CEvict                 = "evict"
	CRemoteLoad            = "remote.load"
	CRemoteStore           = "remote.store"
	CRMRemoteReads         = "rm.remote_reads"
	CLeaseLocalReads       = "lease.local_reads"
	CLeaseExpiredReads     = "lease.expired_reads"
	CLeaseGranted          = "lease.granted"
	CLeaseRenewed          = "lease.renewed"
	CLeaseBumps            = "lease.bumps"
	CModeSwitch            = "mode.switch"
	CRaceDetected          = "race.detected"
	CHomeRead              = "home.read"
	CHomeWriteOwn          = "home.writeown"
	CHomeInv               = "home.inv"
	CHomeDiff              = "home.diff"
	CHomeRelay             = "home.relay"
	CHomeRemRead           = "home.remread"
	CHomeRemWrite          = "home.remwrite"
	CMemberGone            = "member.gone"
	CMemberPrunedCopies    = "member.pruned_copies"
	CMemberPrunedConsumers = "member.pruned_consumers"
	CMemberReclaimedOwner  = "member.reclaimed_owner"
	CRelayGone             = "relay.gone"
	CMemberRecovered       = "member.recovered"
	CRecoverAnnounced      = "recover.announced"
	CRecoverObjects        = "recover.objects"
	CRecoverRejected       = "recover.rejected"
	CRecoverDone           = "recover.done"
	CDropMalformed         = "drop.malformed"
	CDropUnknownObject     = "drop.unknown_object"
	CDropMisdirected       = "drop.misdirected"
	CProducerRefused       = "producer.refused"
	CBarrierCarried        = "barrier.carried"
	CBarrierReleased       = "barrier.released"
	CRelayFailed           = "relay.failed"

	// core (counted on the protocol node): run-gate lifecycle.
	CRecoverGateSynced = "recover.gate_synced"
	CRecoverGateResync = "recover.gate_resync"
	CMemberDownWait    = "member.down_wait"
	CMemberReconnected = "member.reconnected"
	CGateStalePurged   = "gate.stale_purged"
	CGateDropMalformed = "gate.drop_malformed"

	// dlock (counted on the kernel set): departure/recovery handling.
	CDlockGoneDequeued    = "dlock.gone_dequeued"
	CDlockGoneOwner       = "dlock.gone_owner"
	CDlockRecoverDequeued = "dlock.recover_dequeued"
	CDlockRecoverOwner    = "dlock.recover_owner"
	CDlockDropMalformed   = "dlock.drop_malformed"
	CDlockDropMisdirected = "dlock.drop_misdirected"
	CDlockBarrierPurged   = "dlock.barrier_purged"

	// vkernel: pending-call failure accounting.
	CCallFailedPeer = "call.failed_peer"
	CCallFailedGone = "call.failed_gone"
	CDropUnhandled  = "drop.unhandled"
	CDropStrayReply = "drop.stray_reply"

	// transport: wire-level accounting.
	CWireWrites       = "wire.writes"
	CWireFrames       = "wire.frames"
	CWireCoalesced    = "wire.coalesced"
	CWireDials        = "wire.dials"
	CWirePeerDown     = "wire.peer_down"
	CWirePeerGone     = "wire.peer_gone"
	CWireReconnects   = "wire.reconnects"
	CWireMisrouted    = "wire.misrouted"
	CWireQueueStall   = "wire.queue_stall"
	CWireQueueStallNs = "wire.queue_stall.ns"
)

// registered maps every exact counter name to the layer that owns it.
var registered = map[string]string{
	CReads:                 "protocol",
	CWrites:                "protocol",
	CFaultRead:             "protocol",
	CFaultWrite:            "protocol",
	CFetchRetry:            "protocol",
	CFetchServed:           "protocol",
	CFwdRead:               "protocol",
	CFwdWrite:              "protocol",
	CFwdNack:               "protocol",
	CTwin:                  "protocol",
	CWriteBuffered:         "protocol",
	CDiffSent:              "protocol",
	CDiffBytes:             "protocol",
	CBatchSent:             "protocol",
	CBatchObjs:             "protocol",
	CBatchBytes:            "protocol",
	CFlushPipelined:        "protocol",
	CEagerPush:             "protocol",
	CConsumerStall:         "protocol",
	CApplyReceived:         "protocol",
	CApplyGap:              "protocol",
	CInvReceived:           "protocol",
	CEvict:                 "protocol",
	CRemoteLoad:            "protocol",
	CRemoteStore:           "protocol",
	CRMRemoteReads:         "protocol",
	CLeaseLocalReads:       "protocol",
	CLeaseExpiredReads:     "protocol",
	CLeaseGranted:          "protocol",
	CLeaseRenewed:          "protocol",
	CLeaseBumps:            "protocol",
	CModeSwitch:            "protocol",
	CRaceDetected:          "protocol",
	CHomeRead:              "protocol",
	CHomeWriteOwn:          "protocol",
	CHomeInv:               "protocol",
	CHomeDiff:              "protocol",
	CHomeRelay:             "protocol",
	CHomeRemRead:           "protocol",
	CHomeRemWrite:          "protocol",
	CMemberGone:            "protocol",
	CMemberPrunedCopies:    "protocol",
	CMemberPrunedConsumers: "protocol",
	CMemberReclaimedOwner:  "protocol",
	CRelayGone:             "protocol",
	CMemberRecovered:       "protocol",
	CRecoverAnnounced:      "protocol",
	CRecoverObjects:        "protocol",
	CRecoverRejected:       "protocol",
	CRecoverDone:           "protocol",
	CDropMalformed:         "protocol",
	CDropUnknownObject:     "protocol",
	CDropMisdirected:       "protocol",
	CProducerRefused:       "protocol",
	CBarrierCarried:        "protocol",
	CBarrierReleased:       "protocol",
	CRelayFailed:           "protocol",

	CRecoverGateSynced: "core",
	CRecoverGateResync: "core",
	CMemberDownWait:    "core",
	CMemberReconnected: "core",
	CGateStalePurged:   "core",
	CGateDropMalformed: "core",

	CDlockGoneDequeued:    "dlock",
	CDlockGoneOwner:       "dlock",
	CDlockRecoverDequeued: "dlock",
	CDlockRecoverOwner:    "dlock",
	CDlockDropMalformed:   "dlock",
	CDlockDropMisdirected: "dlock",
	CDlockBarrierPurged:   "dlock",

	CCallFailedPeer: "vkernel",
	CCallFailedGone: "vkernel",
	CDropUnhandled:  "vkernel",
	CDropStrayReply: "vkernel",

	CWireWrites:       "transport",
	CWireFrames:       "transport",
	CWireCoalesced:    "transport",
	CWireDials:        "transport",
	CWirePeerDown:     "transport",
	CWirePeerGone:     "transport",
	CWireReconnects:   "transport",
	CWireMisrouted:    "transport",
	CWireQueueStall:   "transport",
	CWireQueueStallNs: "transport",
}

// TrafficClasses are the transport's per-class accounting families:
// each class name is itself a message counter, "<class>.bytes" its
// byte counter, and "wire.coalesced.<class>" its frame-sharing
// counter (see transport.ClassOf).
var TrafficClasses = []string{"control", "lock", "coherence", "ivy", "sync", "app"}

// transportAggregates are the transport's whole-link counters kept as
// struct fields rather than Set entries, listed so the docs
// cross-check covers them.
var transportAggregates = []string{"msgs", "bytes"}

// Registered returns every exact registered counter name (parametrized
// per-class families excluded), in map order.
func Registered() []string {
	out := make([]string, 0, len(registered))
	for name := range registered {
		out = append(out, name)
	}
	return out
}

// IsRegistered reports whether name is a declared counter: an exact
// registry entry, a transport traffic-class counter ("app",
// "app.bytes", ...), a whole-link aggregate, or a per-class coalescing
// counter ("wire.coalesced.<class>").
func IsRegistered(name string) bool {
	if _, ok := registered[name]; ok {
		return true
	}
	for _, c := range TrafficClasses {
		if name == c || name == c+".bytes" || name == CWireCoalesced+"."+c {
			return true
		}
	}
	for _, a := range transportAggregates {
		if name == a {
			return true
		}
	}
	return false
}
