package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ppcd"
	"ppcd/internal/benchutil"
)

// fanoutPoint is one K-downstream measurement of the relay tier: K streaming
// consumers hang off the last relay of the chain while the origin churns one
// revocation per publish. Origin egress is the tier's headline number — it
// counts stream-frame bytes the origin itself pushed (to its single relay
// child), so it must stay flat as K grows.
type fanoutPoint struct {
	Conns       int   `json:"conns"`
	FramesTotal int64 `json:"frames_total"`
	// FramesPerSec: data frames delivered across all consumers per second of
	// the churn window (catch-up snapshots excluded).
	FramesPerSec float64 `json:"frames_per_sec"`
	// ConsumerBytes: aggregate bytes read off the wire by all K consumers.
	ConsumerBytes int64 `json:"consumer_bytes_total"`
	// EdgeEgressBytes: bytes the last relay pushed downstream — the tier's
	// aggregate egress, which scales with K so the origin's doesn't have to.
	EdgeEgressBytes int64 `json:"edge_egress_bytes"`
	// LagP50Ns / LagP99Ns: origin-publish-to-consumer-receive delivery lag
	// through the whole relay chain.
	LagP50Ns            int64   `json:"lag_p50_ns"`
	LagP99Ns            int64   `json:"lag_p99_ns"`
	OriginEgressFrames  int64   `json:"origin_egress_frames"`
	OriginEgressBytes   int64   `json:"origin_egress_bytes"`
	OriginBytesPerEpoch float64 `json:"origin_bytes_per_epoch"`
	ElapsedNs           int64   `json:"elapsed_ns"`
}

// fanoutReport is the JSON document emitted by -fanout. OriginFlatRatio is
// the last point's origin bytes-per-epoch over the first's: a relay tier
// doing its job keeps it ~1.0 while the downstream population grows 10x.
type fanoutReport struct {
	Relays          int           `json:"relays"`
	Publishes       int           `json:"publishes"`
	GoMaxProcs      int           `json:"gomaxprocs"`
	Points          []fanoutPoint `json:"points"`
	OriginFlatRatio float64       `json:"origin_flat_ratio"`
}

type fanoutSample struct {
	epoch uint64
	at    time.Time
}

type fanoutConsumerResult struct {
	frames  int64
	bytes   int64
	samples []fanoutSample
	err     error
}

// runFanoutBench measures the relay fan-out tier end to end over localhost
// TCP: origin publisher -> chain of nRelays relays -> K streaming consumers
// on the last relay, for each K in connsSpec ("100,1000"). Heartbeats are
// disabled on every hop so the egress counters account for data frames
// exactly.
func runFanoutBench(connsSpec string, nRelays, publishes int, out io.Writer) (*fanoutReport, error) {
	ks, err := parseFanoutConns(connsSpec)
	if err != nil {
		return nil, err
	}
	if nRelays < 1 || publishes < 1 {
		return nil, fmt.Errorf("ppcd-bench: -fanout needs relays>=1, fanout-publishes>=1")
	}

	// The table only has to feed the churn: first half of the pseudonyms is
	// the revocation pool, one revocation per publish, pool refreshed per
	// point by re-importing the pristine state.
	subs := 2*publishes + 8
	params, err := ppcd.Setup(ppcd.PaperCurve(), []byte("ppcd-bench"))
	if err != nil {
		return nil, err
	}
	idmgr, err := ppcd.NewIdentityManager(params)
	if err != nil {
		return nil, err
	}
	acps, doc, rows, err := benchutil.Workload(subs, 2, subs/2, 512)
	if err != nil {
		return nil, err
	}
	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), acps, ppcd.Options{Ell: 8})
	if err != nil {
		return nil, err
	}
	srv, err := ppcd.NewServer(pub)
	if err != nil {
		return nil, err
	}
	srv.SetHeartbeatInterval(0)
	originAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	edgeAddr := originAddr
	var relays []*ppcd.Relay
	defer func() {
		for i := len(relays) - 1; i >= 0; i-- {
			relays[i].Close()
		}
	}()
	for i := 0; i < nRelays; i++ {
		r, err := ppcd.NewRelay(edgeAddr, params, &ppcd.RelayOptions{
			Heartbeat:      -1, // disabled: exact frame accounting
			ReconnectDelay: 200 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		addr, err := r.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		relays = append(relays, r)
		edgeAddr = addr
	}
	edge := relays[len(relays)-1]

	rep := &fanoutReport{Relays: nRelays, Publishes: publishes, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, k := range ks {
		pt, err := runFanoutPoint(pub, srv, edge, edgeAddr, params, doc, rows, k, publishes)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, *pt)
	}
	if n := len(rep.Points); n > 0 && rep.Points[0].OriginBytesPerEpoch > 0 {
		rep.OriginFlatRatio = rep.Points[n-1].OriginBytesPerEpoch / rep.Points[0].OriginBytesPerEpoch
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func runFanoutPoint(pub *ppcd.Publisher, srv *ppcd.Server, edge *ppcd.Relay, edgeAddr string,
	params *ppcd.CommitmentParams, doc *ppcd.Document, rows []benchutil.Row, k, publishes int) (*fanoutPoint, error) {
	// Fresh revocation pool, settled through the whole chain before any
	// consumer connects, so every catch-up is one snapshot at this epoch.
	if err := benchutil.Load(pub, rows); err != nil {
		return nil, err
	}
	seed, err := pub.Publish(doc)
	if err != nil {
		return nil, err
	}
	if err := srv.PublishBroadcast(seed); err != nil {
		return nil, err
	}
	if err := waitRelayEpoch(edge, seed.Epoch, 30*time.Second); err != nil {
		return nil, err
	}

	var final atomic.Uint64
	ready := make(chan error, k)
	results := make(chan fanoutConsumerResult, k)
	for i := 0; i < k; i++ {
		go fanoutConsumer(edgeAddr, params, doc.Name, &final, ready, results)
	}
	for i := 0; i < k; i++ {
		if err := <-ready; err != nil {
			return nil, fmt.Errorf("ppcd-bench: fanout consumer: %w", err)
		}
	}
	if got := edge.Streams(); got < k {
		return nil, fmt.Errorf("ppcd-bench: edge holds %d streams, want %d", got, k)
	}

	originFrames0, originBytes0 := srv.Egress()
	_, edgeBytes0 := edge.Egress()
	publishTimes := make(map[uint64]time.Time, publishes)
	t0 := time.Now()
	for p := 0; p < publishes; p++ {
		if err := pub.RevokeSubscription(fmt.Sprintf("pn-%d", p)); err != nil {
			return nil, err
		}
		b, err := pub.Publish(doc)
		if err != nil {
			return nil, err
		}
		if p == publishes-1 {
			final.Store(b.Epoch) // consumers stop once they see this epoch
		}
		publishTimes[b.Epoch] = time.Now()
		if err := srv.PublishBroadcast(b); err != nil {
			return nil, err
		}
		// Open-loop pacing: epochs keep arriving while consumers drain, the
		// realistic regime for a churn stream.
		time.Sleep(20 * time.Millisecond)
	}

	pt := &fanoutPoint{Conns: k}
	var lags []time.Duration
	for i := 0; i < k; i++ {
		res := <-results
		if res.err != nil {
			return nil, fmt.Errorf("ppcd-bench: fanout consumer: %w", res.err)
		}
		pt.FramesTotal += res.frames
		pt.ConsumerBytes += res.bytes
		for _, s := range res.samples {
			if t, ok := publishTimes[s.epoch]; ok {
				lags = append(lags, s.at.Sub(t))
			}
		}
	}
	elapsed := time.Since(t0)

	originFrames1, originBytes1 := srv.Egress()
	_, edgeBytes1 := edge.Egress()
	pt.OriginEgressFrames = originFrames1 - originFrames0
	pt.OriginEgressBytes = originBytes1 - originBytes0
	pt.OriginBytesPerEpoch = float64(pt.OriginEgressBytes) / float64(publishes)
	pt.EdgeEgressBytes = edgeBytes1 - edgeBytes0
	pt.ElapsedNs = elapsed.Nanoseconds()
	pt.FramesPerSec = float64(pt.FramesTotal) / elapsed.Seconds()
	if len(lags) > 0 {
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		pt.LagP50Ns = lags[len(lags)/2].Nanoseconds()
		pt.LagP99Ns = lags[len(lags)*99/100].Nanoseconds()
	}
	return pt, nil
}

// fanoutConsumer is one downstream subscriber: subscribe from scratch,
// treat the first data frame (the catch-up snapshot) as the ready signal,
// then record a receive timestamp per churn frame until the final epoch
// lands. The request/response client is closed right after Subscribe — the
// stream is an independent connection — halving the bench's fd footprint.
func fanoutConsumer(addr string, params *ppcd.CommitmentParams, docName string,
	final *atomic.Uint64, ready chan<- error, results chan<- fanoutConsumerResult) {
	var res fanoutConsumerResult
	sentReady := false
	fail := func(err error) {
		res.err = err
		if !sentReady {
			ready <- err
		}
		results <- res
	}
	client, err := ppcd.Dial(addr, params)
	if err != nil {
		fail(err)
		return
	}
	st, err := client.Subscribe(docName, 0, 0)
	client.Close()
	if err != nil {
		fail(err)
		return
	}
	defer st.Close()

	var maxEpoch, baseBytes int64
	first := true
	for {
		if err := st.SetReadDeadline(time.Now().Add(60 * time.Second)); err != nil {
			fail(err)
			return
		}
		f, err := st.Next()
		if err != nil {
			fail(err)
			return
		}
		if f.Type == ppcd.FrameHeartbeat {
			continue
		}
		now := time.Now()
		if first {
			first = false
			baseBytes = st.BytesRead()
			sentReady = true
			ready <- nil
		} else {
			res.frames++
			res.samples = append(res.samples, fanoutSample{epoch: f.Epoch, at: now})
		}
		if int64(f.Epoch) > maxEpoch {
			maxEpoch = int64(f.Epoch)
		}
		if t := final.Load(); t != 0 && maxEpoch >= int64(t) {
			res.bytes = st.BytesRead() - baseBytes
			results <- res
			return
		}
	}
}

func waitRelayEpoch(r *ppcd.Relay, epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for r.LastEpoch() < epoch {
		if time.Now().After(deadline) {
			return fmt.Errorf("ppcd-bench: relay stuck at epoch %d, want %d", r.LastEpoch(), epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func parseFanoutConns(spec string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("ppcd-bench: bad -fanout-conns entry %q", part)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("ppcd-bench: -fanout-conns is empty")
	}
	return ks, nil
}
