package tcpnet_test

import (
	"crypto/rand"
	"sync"
	"testing"
	"time"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/tcpnet"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

func TestFrameDelivery(t *testing.T) {
	a, err := tcpnet.Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Connect(map[wire.NodeID]string{1: b.Addr()})

	got := make(chan string, 1)
	b.SetHandler(func(src wire.NodeID, payload []byte) {
		if src == 0 {
			got <- string(payload)
		}
	})
	a.Send(1, []byte("over tcp"))
	select {
	case s := <-got:
		if s != "over tcp" {
			t.Fatalf("payload %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for delivery")
	}
}

func TestAfterRunsOnLoop(t *testing.T) {
	p, err := tcpnet.Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	done := make(chan struct{})
	p.After(10*time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("After callback never ran")
	}
	if p.Now() <= 0 {
		t.Fatal("Now must advance")
	}
}

func TestCloseIdempotent(t *testing.T) {
	p, err := tcpnet.Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	p.Detach()
	p.Send(1, []byte("dropped")) // must not panic after close
}

// finishProbe wraps an ERB engine and signals completion.
type finishProbe struct {
	eng  *erb.Engine
	done chan struct{}
}

func (f *finishProbe) OnRound(rnd uint32)          { f.eng.OnRound(rnd) }
func (f *finishProbe) OnMessage(msg *wire.Message) { f.eng.OnMessage(msg) }
func (f *finishProbe) OnFinish()                   { f.eng.OnFinish(); close(f.done) }

// startLead is how far ahead of the agreed start instant the ERB tests
// arm their peers (Peer.StartIn), as a live deployment does: a peer
// whose loop had not yet run a plain Start would drop the initiator's
// round-1 frames, and the initiator would halt for want of ACKs.
const startLead = 500 * time.Millisecond

func TestERBOverRealTCP(t *testing.T) {
	// End-to-end: 5 enclaved peers with real AES+HMAC channels over real
	// TCP sockets on localhost run one ERB broadcast.
	const n, byz = 5, 2
	const delta = 150 * time.Millisecond

	ports := make([]*tcpnet.Port, n)
	addrs := make(map[wire.NodeID]string, n)
	for i := 0; i < n; i++ {
		p, err := tcpnet.Listen(wire.NodeID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ports[i] = p
		addrs[wire.NodeID(i)] = p.Addr()
	}
	origin := time.Now()
	for _, p := range ports {
		p.Connect(addrs)
		p.SetOrigin(origin)
	}

	service, err := enclave.NewAttestationService(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	program := []byte("erb-over-tcp-v1")
	encls := make([]*enclave.Enclave, n)
	roster := runtime.Roster{
		Quotes:      make([]enclave.Quote, n),
		ServiceKey:  service.VerifyKey(),
		Measurement: measurement(program),
	}
	clock := enclave.NewWallClock()
	for i := 0; i < n; i++ {
		e, err := enclave.Launch(program, wire.NodeID(i), rand.Reader, clock)
		if err != nil {
			t.Fatal(err)
		}
		encls[i] = e
		roster.Quotes[i] = service.Attest(e)
	}

	peers := make([]*runtime.Peer, n)
	for i := 0; i < n; i++ {
		p, err := runtime.NewPeer(encls[i], ports[i], roster, runtime.Config{
			N: n, T: byz, Delta: delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	if err := runtime.Setup(peers); err != nil {
		t.Fatal(err)
	}

	probes := make([]*finishProbe, n)
	for i := 0; i < n; i++ {
		eng, err := erb.NewEngine(peers[i], erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
		if err != nil {
			t.Fatal(err)
		}
		probes[i] = &finishProbe{eng: eng, done: make(chan struct{})}
		if i == 0 {
			eng.SetInput(wire.Value{0xCA, 0xFE})
		}
	}
	// Start on each node's event loop: peer state is loop-confined. Every
	// peer is armed for one agreed instant.
	start := time.Now().Add(startLead)
	for i := 0; i < n; i++ {
		i := i
		ports[i].After(0, func() {
			peers[i].StartIn(probes[i], probes[i].eng.Rounds(), time.Until(start))
		})
	}

	deadline := time.After(time.Duration(byz+4) * 2 * delta * 4)
	for i := 0; i < n; i++ {
		select {
		case <-probes[i].done:
		case <-deadline:
			t.Fatalf("peer %d did not finish in time", i)
		}
	}
	for i := 0; i < n; i++ {
		res, ok := probes[i].eng.Result(0)
		if !ok || !res.Accepted || res.Value != (wire.Value{0xCA, 0xFE}) {
			t.Fatalf("peer %d: %+v ok=%v", i, res, ok)
		}
	}
}

func measurement(program []byte) xcrypto.Measurement {
	return xcrypto.Measure(program)
}

// TestConcurrentSendPooledFrames hammers the pooled frame path from many
// goroutines at once: every payload must arrive intact even though the
// frame buffers cycle through a shared sync.Pool. Run under -race this
// pins the handoff between Send, the writer goroutine and pool reuse.
func TestConcurrentSendPooledFrames(t *testing.T) {
	a, err := tcpnet.Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Connect(map[wire.NodeID]string{1: b.Addr()})

	const senders, perSender = 8, 50
	type rec struct {
		sender byte
		ok     bool
	}
	got := make(chan rec, senders*perSender)
	b.SetHandler(func(src wire.NodeID, payload []byte) {
		if len(payload) < 2 {
			got <- rec{}
			return
		}
		// Payload is sender id, seq, then a run of the sender byte; any
		// pooled-buffer corruption shows up as a foreign byte.
		r := rec{sender: payload[0], ok: true}
		for _, c := range payload[2:] {
			if c != payload[0] {
				r.ok = false
				break
			}
		}
		got <- r
	})

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := make([]byte, 2+16+s)
				payload[0] = byte(s)
				payload[1] = byte(i)
				for j := 2; j < len(payload); j++ {
					payload[j] = byte(s)
				}
				a.Send(1, payload)
			}
		}(s)
	}
	wg.Wait()

	// The writer queue drops under backpressure by design, so require
	// only that everything delivered is intact and that a healthy
	// fraction arrives.
	delivered := 0
	deadline := time.After(10 * time.Second)
	for delivered < senders*perSender {
		select {
		case r := <-got:
			if !r.ok {
				t.Fatalf("corrupted payload from sender %d", r.sender)
			}
			delivered++
		case <-deadline:
			if delivered < senders*perSender/2 {
				t.Fatalf("only %d/%d payloads delivered", delivered, senders*perSender)
			}
			return
		}
	}
}
