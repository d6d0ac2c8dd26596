package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"

	"hesgx/internal/nn"
	"hesgx/internal/serve"
	"hesgx/internal/stats"
)

// replyProbe wraps a server-side connection and runs check before the first
// byte of every frame the server writes. Both frame writers emit the 5-byte
// header (little-endian length including the type byte, then the type) at
// the start of a Write, so frame boundaries are tracked from the headers.
type replyProbe struct {
	net.Conn
	remaining int // bytes of the current frame not yet written
	check     func(MsgType)
}

func (c *replyProbe) Write(p []byte) (int, error) {
	if c.remaining == 0 && len(p) >= 5 {
		c.remaining = 4 + int(binary.LittleEndian.Uint32(p[:4]))
		c.check(MsgType(p[4]))
	}
	c.remaining -= len(p)
	return c.Conn.Write(p)
}

type probeListener struct {
	net.Listener
	check func(MsgType)
}

func (l probeListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &replyProbe{Conn: conn, check: l.check}, nil
}

// TestReplyAccountedBeforeWrite pins the server's reply ordering: by the
// time the first byte of an inference reply reaches the connection, the
// request is already in the wire.reply_bytes histogram and its trace is
// already in the server's trace ring. A client that returns as soon as it
// reads the reply must never observe either one missing the request. The
// probe runs synchronously inside the server's write, so the check is
// deterministic rather than a race the scheduler may or may not expose.
func TestReplyAccountedBeforeWrite(t *testing.T) {
	var (
		mu      sync.Mutex
		replies int
		errs    []string
		service *serve.Service
		metrics *stats.Registry
		ready   = make(chan struct{})
	)
	check := func(typ MsgType) {
		if typ != MsgInferReply && typ != MsgInferBatchReply {
			return
		}
		<-ready
		mu.Lock()
		defer mu.Unlock()
		replies++
		if got := metrics.Histogram("wire.reply_bytes").Snapshot().Count; got != uint64(replies) {
			errs = append(errs, fmt.Sprintf("reply %d (type %d): wire.reply_bytes holds %d observations at write time", replies, typ, got))
		}
		if got := len(service.Tracer.Last(0)); got != replies {
			errs = append(errs, fmt.Sprintf("reply %d (type %d): trace ring holds %d traces at write time", replies, typ, got))
		}
	}
	addr, st, svc, shutdown := testStackLanesOn(t, func(ln net.Listener) net.Listener {
		return probeListener{Listener: ln, check: check}
	})
	defer shutdown()
	service, metrics = svc, st.metrics
	close(ready)

	client := attestedClient(t, addr)
	if _, err := client.Infer(testImage(71), 63); err != nil {
		t.Fatal(err)
	}
	if _, err := client.InferBatch([]*nn.Tensor{testImage(72), testImage(73)}, 63); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if replies != 2 {
		t.Fatalf("probe saw %d inference replies, want 2", replies)
	}
	for _, e := range errs {
		t.Error(e)
	}
}
