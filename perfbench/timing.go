package main

import (
	"sync/atomic"
	"time"

	"dif/internal/model"
	"dif/internal/prism"
)

// timingTransport decorates a prism.Transport for the traced events run:
// it times Send and the receive callback, counts frames and bytes sent,
// and stamps each inbound application request's arrival so the receiving
// component can measure the hand-off to its Handle. Until enable is
// called it only forwards, so warm-up traffic is not counted.
type timingTransport struct {
	inner prism.Transport
	tr    *tracer
	on    atomic.Bool

	nFrames atomic.Int64
	nBytes  atomic.Int64
}

var (
	_ prism.Transport      = (*timingTransport)(nil)
	_ prism.BufferRetainer = (*timingTransport)(nil)
)

func newTimingTransport(inner prism.Transport, tr *tracer) *timingTransport {
	return &timingTransport{inner: inner, tr: tr}
}

func (t *timingTransport) enable() { t.on.Store(true) }

func (t *timingTransport) frames() float64 { return float64(t.nFrames.Load()) }
func (t *timingTransport) bytes() float64  { return float64(t.nBytes.Load()) }

func (t *timingTransport) Host() model.HostID    { return t.inner.Host() }
func (t *timingTransport) Peers() []model.HostID { return t.inner.Peers() }
func (t *timingTransport) Close() error          { return t.inner.Close() }

// RetainsSendBuffers forwards the inner transport's answer, so the
// connector pools its encode buffers exactly as it does undecorated.
func (t *timingTransport) RetainsSendBuffers() bool {
	br, ok := t.inner.(prism.BufferRetainer)
	return !ok || br.RetainsSendBuffers()
}

func (t *timingTransport) Send(to model.HostID, data []byte, sizeKB float64) error {
	if !t.on.Load() {
		return t.inner.Send(to, data, sizeKB)
	}
	send := t.tr.begin("prism.send")
	err := t.inner.Send(to, data, sizeKB)
	send.end()
	t.nFrames.Add(1)
	t.nBytes.Add(int64(len(data)))
	return err
}

func (t *timingTransport) SetReceiver(recv func(from model.HostID, data []byte)) {
	t.inner.SetReceiver(func(from model.HostID, data []byte) {
		if !t.on.Load() {
			recv(from, data)
			return
		}
		// Peek at the frame's delivery identity (outside the timed
		// region) so the component's Handle can find its arrival time.
		var key handoffKey
		if e, err := prism.DecodeEvent(data); err == nil && e.Seq != 0 {
			key = handoffKey{target: e.Target, origin: e.SeqOrigin, seq: e.Seq}
		}
		if key.seq != 0 {
			t.tr.arrived(key, time.Now())
		}
		call := t.tr.begin("prism.recv")
		recv(from, data)
		call.end()
	})
}

// handoffKey is an application event's delivery identity.
type handoffKey struct {
	target string
	origin model.HostID
	seq    uint64
}

// arrived notes when a stamped event entered the receive callback, until
// the target's Handle claims it.
func (t *tracer) arrived(k handoffKey, at time.Time) {
	t.arrMu.Lock()
	t.arrivals[k] = at
	t.arrMu.Unlock()
}

// handoff records the time from the receive callback's entry to the
// component's Handle for a stamped application event.
func (t *tracer) handoff(e prism.Event) {
	if e.Seq == 0 {
		return
	}
	k := handoffKey{target: e.Target, origin: e.SeqOrigin, seq: e.Seq}
	t.arrMu.Lock()
	at, ok := t.arrivals[k]
	delete(t.arrivals, k)
	t.arrMu.Unlock()
	if ok {
		t.observe("prism.handoff", time.Since(at))
	}
}
