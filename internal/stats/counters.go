// Counter declarations. Each counting layer's counters are the fields
// of one struct below, and a field's tag is the counter's name: the
// runtime bumps a counter through its field (n.ctr.HomeDiff.Inc()), so
// a misspelt counter does not compile, and a by-name read (Set.Get,
// Values.Get) of a name no field declares panics. The structs are the
// registry: IsRegistered, Registered and LayerOf are derived from them,
// and internal/analysis/regsync checks them against the
// docs/ARCHITECTURE.md counters table.
package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Names some readers outside the runtime look counters up by.
const (
	CReads            = "reads"
	CFaultRead        = "fault.read"
	CFaultWrite       = "fault.write"
	CFetchRetry       = "fetch.retry"
	CTwin             = "twin"
	CBatchSent        = "batch.sent"
	CBatchObjs        = "batch.objs"
	CBatchBytes       = "batch.bytes"
	CApplyGap         = "apply.gap"
	CInvReceived      = "inv.received"
	CHomeRelay        = "home.relay"
	CWireWrites       = "wire.writes"
	CWireQueueStallNs = "wire.queue_stall.ns"
)

// TrafficClasses are the transport's traffic classes, in the order of
// its per-class counter arrays (see transport.ClassOf).
var TrafficClasses = [...]string{"control", "lock", "coherence", "ivy", "sync", "app"}

// Protocol is the protocol node's counters: application accesses,
// coherence traffic, membership and recovery, and the drops of peer
// input. The node binds them into its Set (protocol.Node.C).
type Protocol struct {
	Reads                 Counter `counter:"reads"`
	Writes                Counter `counter:"writes"`
	FaultRead             Counter `counter:"fault.read"`
	FaultWrite            Counter `counter:"fault.write"`
	FetchRetry            Counter `counter:"fetch.retry"`
	FetchServed           Counter `counter:"fetch.served"`
	FwdRead               Counter `counter:"fwd.read"`
	FwdWrite              Counter `counter:"fwd.write"`
	FwdNack               Counter `counter:"fwd.nack"`
	Twin                  Counter `counter:"twin"`
	WriteBuffered         Counter `counter:"write.buffered"`
	DiffSent              Counter `counter:"diff.sent"`
	DiffBytes             Counter `counter:"diff.bytes"`
	BatchSent             Counter `counter:"batch.sent"`
	BatchObjs             Counter `counter:"batch.objs"`
	BatchBytes            Counter `counter:"batch.bytes"`
	FlushPipelined        Counter `counter:"flush.pipelined"`
	EagerPush             Counter `counter:"eager.push"`
	ConsumerStall         Counter `counter:"consumer.stall"`
	ApplyReceived         Counter `counter:"apply.received"`
	ApplyGap              Counter `counter:"apply.gap"`
	InvReceived           Counter `counter:"inv.received"`
	Evict                 Counter `counter:"evict"`
	RemoteLoad            Counter `counter:"remote.load"`
	RemoteStore           Counter `counter:"remote.store"`
	RMRemoteReads         Counter `counter:"rm.remote_reads"`
	LeaseLocalReads       Counter `counter:"lease.local_reads"`
	LeaseExpiredReads     Counter `counter:"lease.expired_reads"`
	LeaseGranted          Counter `counter:"lease.granted"`
	LeaseRenewed          Counter `counter:"lease.renewed"`
	LeaseBumps            Counter `counter:"lease.bumps"`
	ModeSwitch            Counter `counter:"mode.switch"`
	RaceDetected          Counter `counter:"race.detected"`
	HomeRead              Counter `counter:"home.read"`
	HomeWriteOwn          Counter `counter:"home.writeown"`
	HomeInv               Counter `counter:"home.inv"`
	HomeDiff              Counter `counter:"home.diff"`
	HomeRelay             Counter `counter:"home.relay"`
	HomeRemRead           Counter `counter:"home.remread"`
	HomeRemWrite          Counter `counter:"home.remwrite"`
	MemberGone            Counter `counter:"member.gone"`
	MemberPrunedCopies    Counter `counter:"member.pruned_copies"`
	MemberPrunedConsumers Counter `counter:"member.pruned_consumers"`
	MemberReclaimedOwner  Counter `counter:"member.reclaimed_owner"`
	RelayGone             Counter `counter:"relay.gone"`
	MemberRecovered       Counter `counter:"member.recovered"`
	RecoverAnnounced      Counter `counter:"recover.announced"`
	RecoverObjects        Counter `counter:"recover.objects"`
	RecoverRejected       Counter `counter:"recover.rejected"`
	RecoverDone           Counter `counter:"recover.done"`
	DropMalformed         Counter `counter:"drop.malformed"`
	DropUnknownObject     Counter `counter:"drop.unknown_object"`
	DropMisdirected       Counter `counter:"drop.misdirected"`
	ProducerRefused       Counter `counter:"producer.refused"`
	BarrierCarried        Counter `counter:"barrier.carried"`
	BarrierReleased       Counter `counter:"barrier.released"`
	RelayFailed           Counter `counter:"relay.failed"`
}

// Core is the run gate's counters. They sit on the protocol node
// (protocol.Node.Core) and are bound into its Set.
type Core struct {
	RecoverGateSynced Counter `counter:"recover.gate_synced"`
	RecoverGateResync Counter `counter:"recover.gate_resync"`
	MemberDownWait    Counter `counter:"member.down_wait"`
	MemberReconnected Counter `counter:"member.reconnected"`
	GateStalePurged   Counter `counter:"gate.stale_purged"`
	GateDropMalformed Counter `counter:"gate.drop_malformed"`
}

// Dlock is the lock service's counters: departure and recovery
// handling and the drops of peer input. They are bound into the
// kernel's Set (vkernel.Kernel.C).
type Dlock struct {
	GoneDequeued    Counter `counter:"dlock.gone_dequeued"`
	GoneOwner       Counter `counter:"dlock.gone_owner"`
	RecoverDequeued Counter `counter:"dlock.recover_dequeued"`
	RecoverOwner    Counter `counter:"dlock.recover_owner"`
	DropMalformed   Counter `counter:"dlock.drop_malformed"`
	DropMisdirected Counter `counter:"dlock.drop_misdirected"`
	DropForward     Counter `counter:"dlock.drop_forward"`
	GrantFailed     Counter `counter:"dlock.grant_failed"`
	HandBackFailed  Counter `counter:"dlock.handback_failed"`
	BarrierPurged   Counter `counter:"dlock.barrier_purged"`
}

// Vkernel is the kernel's counters: pending-call failures and
// dropped messages. They are bound into the kernel's Set.
type Vkernel struct {
	CallFailedPeer Counter `counter:"call.failed_peer"`
	CallFailedGone Counter `counter:"call.failed_gone"`
	DropUnhandled  Counter `counter:"drop.unhandled"`
	DropStrayReply Counter `counter:"drop.stray_reply"`
}

// Transport is a network's wire counters. Msgs, Bytes and Coalesced
// are indexed by traffic class (TrafficClasses): a "*" in an array
// field's tag stands for the class name.
type Transport struct {
	Msgs         [len(TrafficClasses)]Counter `counter:"*"`
	Bytes        [len(TrafficClasses)]Counter `counter:"*.bytes"`
	CoalescedBy  [len(TrafficClasses)]Counter `counter:"wire.coalesced.*"`
	Writes       Counter                      `counter:"wire.writes"`
	Frames       Counter                      `counter:"wire.frames"`
	Coalesced    Counter                      `counter:"wire.coalesced"`
	Dials        Counter                      `counter:"wire.dials"`
	PeerDown     Counter                      `counter:"wire.peer_down"`
	PeerGone     Counter                      `counter:"wire.peer_gone"`
	Reconnects   Counter                      `counter:"wire.reconnects"`
	Misrouted    Counter                      `counter:"wire.misrouted"`
	QueueStall   Counter                      `counter:"wire.queue_stall"`
	QueueStallNs Counter                      `counter:"wire.queue_stall.ns"`
}

// layers are the counter structs; a struct's lower-cased name is the
// layer of its counters.
var layers = []reflect.Type{
	reflect.TypeFor[Protocol](),
	reflect.TypeFor[Core](),
	reflect.TypeFor[Dlock](),
	reflect.TypeFor[Vkernel](),
	reflect.TypeFor[Transport](),
}

// A field is one declared counter: its name, and where its layer struct
// holds it.
type field struct {
	name  string
	layer reflect.Type
	index int // the struct field
	elem  int // the array element, or -1
}

// in returns the counter f names in v, a struct of f's layer.
func (f field) in(v reflect.Value) *Counter {
	c := v.Field(f.index)
	if f.elem >= 0 {
		c = c.Index(f.elem)
	}
	return c.Addr().Interface().(*Counter)
}

// fields lists each layer's counters in declaration order; declared
// maps every counter name to its field. An array field has one counter
// per traffic class.
var fields, declared = func() (map[reflect.Type][]field, map[string]field) {
	fs, m := map[reflect.Type][]field{}, map[string]field{}
	for _, t := range layers {
		for i := range t.NumField() {
			tag, n := t.Field(i).Tag.Get("counter"), 1
			if t.Field(i).Type.Kind() == reflect.Array {
				n = len(TrafficClasses)
			}
			for j := range n {
				f := field{name: tag, layer: t, index: i, elem: -1}
				if n > 1 {
					f.name, f.elem = strings.Replace(tag, "*", TrafficClasses[j], 1), j
				}
				if _, dup := m[f.name]; dup || f.name == "" {
					panic(fmt.Sprintf("stats: counter %s.%s has an empty or duplicate name %q", t.Name(), t.Field(i).Name, f.name))
				}
				fs[t], m[f.name] = append(fs[t], f), f
			}
		}
	}
	return fs, m
}()

// IsRegistered reports whether a counter struct declares name.
func IsRegistered(name string) bool {
	_, ok := declared[name]
	return ok
}

// LayerOf returns the layer whose struct declares name ("" if none).
func LayerOf(name string) string {
	if f, ok := declared[name]; ok {
		return strings.ToLower(f.layer.Name())
	}
	return ""
}

// Registered returns every declared counter name, sorted.
func Registered() []string {
	out := make([]string, 0, len(declared))
	for name := range declared {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// mustDeclare panics on a counter name no struct declares: read by
// name, it would otherwise read 0 forever.
func mustDeclare(name string) {
	if !IsRegistered(name) {
		panic(fmt.Sprintf("stats: no counter struct declares %q", name))
	}
}
