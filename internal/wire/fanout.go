// Fanout: demultiplexing one receive socket into N per-core queue ports
// — the software equivalent of RSS (or Linux's PACKET_FANOUT_CPU) for a
// wire backend whose peer speaks to a single address. One reader
// goroutine drains the shared socket and files each frame into the
// owning core's RX ring: queue = the simulated adapter's RSS queue
// (nic.Queue), so a flow lands on the same core as in an N-core
// simulated run. The map is static, so a flow stays on one core for the
// whole session, that core alone holds the flow's state (conntrack, NAT
// mappings), and the cores never talk to each other. A skewed mix (one
// elephant flow) loads its queue unevenly; that is the price of flow
// affinity, and the demux does not chase it.
//
// The transmit side needs no demux: every queue port writes the shared
// TX socket directly — datagram writes are atomic, and each queue keeps
// its own pacing clock and in-flight ring, like per-queue TX rings on
// one physical link.
package wire

import (
	"net"
	"sync"

	"packetmill/internal/nic"
)

// Fanout owns the shared sockets and the per-core queue ports. Create
// with NewFanout, hand Queue(i) to core i's PMD, and Close once — the
// queue ports must not be closed individually.
type Fanout struct {
	cfg    Config
	rxConn net.Conn
	txConn net.Conn
	queues []*Port
	done   chan struct{}

	mu     sync.Mutex // guards closed
	closed bool
}

// NewFanout builds n queue ports demuxed from rxConn and starts the
// reader. cfg applies to every queue (cfg.Queue is overridden with the
// queue index). txConn may be nil for a receive-only fanout; rxConn may
// be nil for a transmit-only one (no reader runs).
func NewFanout(cfg Config, n int, rxConn, txConn net.Conn) *Fanout {
	cfg.fill()
	if n < 1 {
		n = 1
	}
	f := &Fanout{
		cfg:    cfg,
		rxConn: rxConn,
		txConn: txConn,
		done:   make(chan struct{}),
	}
	for q := 0; q < n; q++ {
		qcfg := cfg
		qcfg.Queue = q
		f.queues = append(f.queues, NewPort(qcfg, nil, txConn))
	}
	if rxConn != nil {
		go f.run()
	} else {
		close(f.done)
	}
	return f
}

// Queue returns queue port i — hand it to core i's PMD.
func (f *Fanout) Queue(i int) *Port { return f.queues[i] }

// NumQueues reports the fanout width.
func (f *Fanout) NumQueues() int { return len(f.queues) }

// Close stops the reader, closes the shared sockets, and closes every
// queue port.
func (f *Fanout) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	var err error
	if f.rxConn != nil {
		err = f.rxConn.Close()
	}
	<-f.done
	for i, q := range f.queues {
		// Every queue shares txConn; the first Close closes it and the
		// rest see an already-closed conn, which is fine.
		if e := q.Close(); err == nil && i == 0 {
			err = e
		}
	}
	return err
}

// run is the reader: drain the shared socket, demux by RSS queue.
func (f *Fanout) run() {
	defer close(f.done)
	buf := make([]byte, f.cfg.MTU)
	consecErrs := 0
	for {
		n, err := f.rxConn.Read(buf)
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return
			}
			consecErrs++
			readBackoff(consecErrs)
			continue
		}
		consecErrs = 0
		frame := buf[:n]
		f.queues[nic.Queue(frame, len(f.queues))].deliver(frame)
	}
}
