package main

import "math"

// userBytesPerElement is what one reading carries for the user: the
// sensor name, the attribute name and a float.
const userBytesPerElement = len("s000000") + len(attrName) + 8

// minSamples is the floor under every latency metric of a full-scale
// pass: fewer samples and the pass fails rather than report a
// percentile it cannot support.
var minSamples = map[string]int{
	"batch_ack": 400, "fact": 200, "select": 100, "scan": 25, "asof": 50, "delivery": 200,
}

// endToEnd reduces an untraced pass to the end-to-end metrics: medians
// over samples, interquartile means over rounds and restarts.
func (x *env) endToEnd(m *measured) values {
	s := &m.serve
	x.need("batch_ack", m.ack.n())
	x.need("fact", s.q[qFact].n())
	x.need("select", s.q[qSelect].n())
	x.need("scan", s.q[qScan].n())
	x.need("asof", s.q[qAsof].n())
	x.need("delivery", s.delivery.n())
	return values{
		"setup_s":          median(m.setup),
		"ingest_eps":       iqMean(m.eps),
		"batch_ack_p50_ms": median(m.ack.ms),
		"fact_p50_ms":      median(s.q[qFact].ms),
		"select_p50_ms":    median(s.q[qSelect].ms),
		"scan_p50_ms":      median(s.q[qScan].ms),
		"asof_p50_ms":      median(s.q[qAsof].ms),
		"delivery_p50_ms":  median(s.delivery.ms),
		"recover_s":        iqMean(m.recover),
		"peak_rss_mb":      m.peakRSS,
	}
}

// need fails the pass when a latency class collected too few samples.
// Shrunk passes (the smoke test) only need one.
func (x *env) need(class string, got int) {
	want := 1
	if x.scale >= 1 {
		want = minSamples[class]
	}
	x.attempt(1)
	if got < want {
		x.fail("%s collected %d samples, needs %d", class, got, want)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer reduces a traced pass to the per-layer metrics: span
// aggregates from the tracer, byte and call counts from the counting
// filesystem, counters gathered from the layers' own stats, and the
// probes. A layer a workload never enters reports 0.
func (x *env) perLayer(m *measured) values {
	v := values{}
	for _, d := range perLayer {
		v[d.Name] = m.layer[d.Name]
	}
	tr, fs := x.tr, x.cfs
	s := &m.serve
	userBytes := float64(m.elements) * float64(userBytesPerElement)

	v["stream.reorder_ns_per_el"] = ratio(m.layer["stream.reorder_ns"], float64(m.bulkElements))

	run, wm := tr.get(rootBatch, "core.run"), tr.get(rootBatch, "core.watermark")
	v["core.run_ns_per_el"] = ratio(float64(run.self), float64(run.n)*batchSize)
	v["core.watermark_us"] = ratio(float64(wm.total)/1e3, float64(wm.n))
	corr := tr.get(rootCorrection, rootCorrection)
	v["state.correction_us"] = ratio(float64(corr.total)/1e3, float64(corr.n))

	write := func(classes ...int) float64 { return float64(fs.sum(fsWrite, fsBytes, classes...)) }
	v["segment.wal_bytes_per_el"] = ratio(write(classWAL), float64(m.elements))
	v["segment.flush_bytes_total"] = write(classSegment, classManifest)
	v["segment.disk_bytes_per_user_byte"] = ratio(m.layer["disk_bytes"],
		float64(m.elements+m.preloaded)*float64(userBytesPerElement))
	open := tr.get(rootRecover, "core.new")
	v["segment.open_ms"] = ratio(float64(open.total)/1e6, float64(open.n))
	v["segment.scan_frames_pruned_ratio"] = ratio(m.layer["scan_frames_pruned"],
		m.layer["scan_frames_pruned"]+m.layer["segment.scan_frames"])

	v["vfs.write_bytes_total"] = write()
	v["vfs.write_ms_total"] = float64(fs.sum(fsWrite, fsNs)) / 1e6
	v["vfs.sync_count"] = float64(fs.sum(fsSync, fsCalls) + fs.sum(fsSyncDir, fsCalls))
	v["vfs.sync_ms_total"] = float64(fs.sum(fsSync, fsNs)+fs.sum(fsSyncDir, fsNs)) / 1e6
	v["vfs.write_amp"] = ratio(write(), userBytes)
	// What an engine reads to come up: whole segments, the MANIFEST and
	// the WAL tail. Cold reads during scans and fault-ins are the
	// segment-class preads.
	v["vfs.open_read_bytes"] = float64(fs.sum(fsReadFile, fsBytes) + fs.sum(fsReadAt, fsBytes, classWAL, classManifest))
	v["vfs.readat_count"] = float64(fs.sum(fsReadAt, fsCalls, classSegment))
	v["vfs.readat_bytes_total"] = float64(fs.sum(fsReadAt, fsBytes, classSegment))
	v["vfs.readat_ms_total"] = float64(fs.sum(fsReadAt, fsNs, classSegment)) / 1e6

	fact := tr.get("fact", "server.handle_fact")
	v["server.handle_fact_us"] = ratio(float64(fact.total)/1e3, float64(fact.n))
	var handle, wire spanAgg
	for _, class := range classNamesQ {
		h, root := tr.get(class, "server.handle_query"), tr.get(class, class)
		handle.n, handle.total = handle.n+h.n, handle.total+h.total
		wire.n, wire.self = wire.n+root.n, wire.self+root.self
	}
	v["server.handle_query_us"] = ratio(float64(handle.total)/1e3, float64(handle.n))
	v["server.wire_overhead_us"] = ratio(float64(wire.self)/1e3, float64(wire.n))
	v["server.encode_bytes_per_query"] = ratio(float64(tr.respBytes.Load()), float64(tr.queries.Load()))

	v["subscribe.hook_to_recv_ms"] = median(s.hookToRecv.ms)
	v["subscribe.queue_depth_max"] = float64(s.queueDepthMax)
	v["loadgen.late_p99_ms"] = quantile(s.late.ms, 0.99)
	v["loadgen.batch_ack_p99_ms"] = quantile(m.ack.ms, 0.99)
	v["loadgen.fact_p99_ms"] = quantile(s.q[qFact].ms, 0.99)
	v["loadgen.select_p99_ms"] = quantile(s.q[qSelect].ms, 0.99)
	v["loadgen.delivery_p99_ms"] = quantile(s.delivery.ms, 0.99)

	v["trace.overhead_ratio"] = ratio(median(m.ack.ms), median(m.ackBase.ms))
	self, total := tr.selfSum(rootBatch)
	v["trace.batch_ack_self_ratio"] = ratio(float64(self), float64(total))
	self, total = tr.selfSum("select")
	v["trace.select_self_ratio"] = ratio(float64(self), float64(total))
	for name, val := range v {
		if math.IsNaN(val) { // no sample: the workload never enters the layer
			v[name] = 0
		}
	}
	return v
}
