// Flow-key extraction straight from frame bytes: the allocation-free
// parse the TX-side latency sampler and the pktgen flow-summary mode
// share. It mirrors the ConnTracker's key derivation (IPv4 addresses +
// L4 ports when present), so a key pulled from a departing frame finds
// the same entry the tracker installed on ingress.
package flowlog

import (
	"encoding/binary"

	"packetmill/internal/conntrack"
	"packetmill/internal/netpkt"
)

// KeyFromFrame derives the flow key of an Ethernet frame (one VLAN tag
// tolerated). It reports false for non-IPv4 or truncated frames. The
// key is direction-sensitive; callers matching a canonicalized table
// apply conntrack.Canonical themselves.
func KeyFromFrame(frame []byte) (conntrack.Key, bool) {
	var k conntrack.Key
	if len(frame) < netpkt.EtherHdrLen+netpkt.IPv4HdrLen {
		return k, false
	}
	off := netpkt.EtherHdrLen
	et := binary.BigEndian.Uint16(frame[12:14])
	if et == netpkt.EtherTypeVLAN {
		if len(frame) < off+4+netpkt.IPv4HdrLen {
			return k, false
		}
		et = binary.BigEndian.Uint16(frame[16:18])
		off += 4
	}
	if et != netpkt.EtherTypeIPv4 {
		return k, false
	}
	hdr := frame[off:]
	if hdr[0]>>4 != 4 {
		return k, false
	}
	ihl := int(hdr[0]&0x0f) * 4
	if ihl < netpkt.IPv4HdrLen || len(frame) < off+ihl {
		return k, false
	}
	k.Proto = hdr[9]
	k.SrcIP = binary.BigEndian.Uint32(hdr[12:16])
	k.DstIP = binary.BigEndian.Uint32(hdr[16:20])
	if (k.Proto == netpkt.ProtoTCP || k.Proto == netpkt.ProtoUDP) &&
		len(frame) >= off+ihl+4 {
		k.SrcPort = binary.BigEndian.Uint16(frame[off+ihl : off+ihl+2])
		k.DstPort = binary.BigEndian.Uint16(frame[off+ihl+2 : off+ihl+4])
	}
	return k, true
}
