package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"dnsddos/internal/netx"
)

// reference_test.go keeps the codec that AppendEncode and DecodeInto
// replaced, as the oracle FuzzCodecDifferential and
// TestReferenceZoneShapedResponses compare them with: one map and one
// strings.Join per label on the way out, one strings.Builder per name and
// per pointer on the way in. It carries the two fixes that landed with the
// replacement (marked fix 1 and fix 2), so that the comparison is exact.

type refEncoder struct {
	buf []byte
	// offsets of previously encoded names for compression; key is the
	// canonical remaining-name suffix
	names map[string]int
}

func (e *refEncoder) putUint16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

func (e *refEncoder) putUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// putName encodes a domain name with compression.
func (e *refEncoder) putName(name string) error {
	name = CanonicalName(name)
	if name == "" {
		e.buf = append(e.buf, 0)
		return nil
	}
	// fix 1: refuse a name the decoder would refuse, before writing any of it
	if wire := len(name) + 2; wire > maxNameLen {
		return fmt.Errorf("%w: %d octets on the wire", ErrBadName, wire)
	}
	labels := strings.Split(name, ".")
	for i := range labels {
		suffix := strings.Join(labels[i:], ".")
		if off, ok := e.names[suffix]; ok && off < 0x3fff {
			e.putUint16(0xc000 | uint16(off))
			return nil
		}
		if len(e.buf) < 0x3fff {
			e.names[suffix] = len(e.buf)
		}
		label := labels[i]
		if len(label) == 0 || len(label) > 63 {
			return fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *refEncoder) putRR(rr RR) error {
	if err := e.putName(rr.Name); err != nil {
		return err
	}
	e.putUint16(uint16(rr.Type))
	e.putUint16(uint16(rr.Class))
	e.putUint32(rr.TTL)
	// reserve rdlength
	lenAt := len(e.buf)
	e.putUint16(0)
	start := len(e.buf)
	switch rr.Type {
	case TypeA:
		e.putUint32(uint32(rr.A))
	case TypeNS:
		if err := e.putName(rr.NS); err != nil {
			return err
		}
	case TypeSOA:
		if rr.SOA == nil {
			return errors.New("dnswire: SOA record without SOAData")
		}
		if err := e.putName(rr.SOA.MName); err != nil {
			return err
		}
		if err := e.putName(rr.SOA.RName); err != nil {
			return err
		}
		e.putUint32(rr.SOA.Serial)
		e.putUint32(rr.SOA.Refresh)
		e.putUint32(rr.SOA.Retry)
		e.putUint32(rr.SOA.Expire)
		e.putUint32(rr.SOA.Minimum)
	case TypeTXT:
		for _, s := range rr.TXT {
			if len(s) > 255 {
				return errors.New("dnswire: TXT string too long")
			}
			e.buf = append(e.buf, byte(len(s)))
			e.buf = append(e.buf, s...)
		}
	case TypeOPT:
		// EDNS(0) pseudo-record: all meaning lives in the fixed RR
		// fields; we carry no options, so RDATA is empty
	default:
		return fmt.Errorf("dnswire: cannot encode RR type %v", rr.Type)
	}
	rdlen := len(e.buf) - start
	if rdlen > 0xffff {
		return errors.New("dnswire: RDATA too long")
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(rdlen))
	return nil
}

// encodeReference is Encode as it stood before AppendEncode.
func encodeReference(m *Message) ([]byte, error) {
	e := &refEncoder{buf: make([]byte, 0, 512), names: make(map[string]int)}
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	h.NSCount = uint16(len(m.Authority))
	h.ARCount = uint16(len(m.Additional))

	e.putUint16(h.ID)
	var flags uint16
	if h.Response {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xf) << 11
	if h.Authoritative {
		flags |= 1 << 10
	}
	if h.Truncated {
		flags |= 1 << 9
	}
	if h.RecursionDesired {
		flags |= 1 << 8
	}
	if h.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(h.RCode & 0xf)
	e.putUint16(flags)
	e.putUint16(h.QDCount)
	e.putUint16(h.ANCount)
	e.putUint16(h.NSCount)
	e.putUint16(h.ARCount)

	for _, q := range m.Questions {
		if err := e.putName(q.Name); err != nil {
			return nil, err
		}
		e.putUint16(uint16(q.Type))
		e.putUint16(uint16(q.Class))
	}
	for _, rr := range m.Answers {
		if err := e.putRR(rr); err != nil {
			return nil, err
		}
	}
	for _, rr := range m.Authority {
		if err := e.putRR(rr); err != nil {
			return nil, err
		}
	}
	for _, rr := range m.Additional {
		if err := e.putRR(rr); err != nil {
			return nil, err
		}
	}
	return e.buf, nil
}

type refDecoder struct {
	buf []byte
	off int
}

func (d *refDecoder) uint16() (uint16, error) {
	if d.off+2 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *refDecoder) uint32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// name decodes a possibly compressed name starting at d.off.
func (d *refDecoder) name() (string, error) {
	s, next, err := d.nameAt(d.off, 0, 0)
	if err != nil {
		return "", err
	}
	d.off = next
	return s, nil
}

// nameAt decodes a name at off; returns the name and the offset just past
// its in-place encoding. depth guards against pointer loops. prefix is
// the length of what the callers up the pointer chain will put in front
// of this part, separator included (fix 2): the limit is the whole
// name's, checked after every label.
func (d *refDecoder) nameAt(off, depth, prefix int) (string, int, error) {
	if depth > 16 {
		return "", 0, ErrBadPointer
	}
	var sb strings.Builder
	for {
		if off >= len(d.buf) {
			return "", 0, ErrShortMessage
		}
		l := int(d.buf[off])
		switch {
		case l == 0:
			return sb.String(), off + 1, nil
		case l&0xc0 == 0xc0:
			if off+2 > len(d.buf) {
				return "", 0, ErrShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(d.buf[off:]) & 0x3fff)
			if ptr >= off {
				return "", 0, ErrBadPointer
			}
			before := prefix + sb.Len()
			if sb.Len() > 0 {
				before++ // the separator, if rest turns out to have a label
			}
			rest, _, err := d.nameAt(ptr, depth+1, before)
			if err != nil {
				return "", 0, err
			}
			// fix 2: no separator in front of nothing
			if sb.Len() > 0 && rest != "" {
				sb.WriteByte('.')
			}
			sb.WriteString(rest)
			return sb.String(), off + 2, nil
		case l > 63:
			return "", 0, ErrBadName
		default:
			if off+1+l > len(d.buf) {
				return "", 0, ErrShortMessage
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(d.buf[off+1 : off+1+l])
			if prefix+sb.Len() > maxNameLen {
				return "", 0, ErrBadName
			}
			off += 1 + l
		}
	}
}

func (d *refDecoder) rr() (RR, error) {
	var rr RR
	name, err := d.name()
	if err != nil {
		return rr, err
	}
	rr.Name = name
	t, err := d.uint16()
	if err != nil {
		return rr, err
	}
	rr.Type = Type(t)
	c, err := d.uint16()
	if err != nil {
		return rr, err
	}
	rr.Class = Class(c)
	ttl, err := d.uint32()
	if err != nil {
		return rr, err
	}
	rr.TTL = ttl
	rdlen, err := d.uint16()
	if err != nil {
		return rr, err
	}
	if d.off+int(rdlen) > len(d.buf) {
		return rr, ErrShortMessage
	}
	end := d.off + int(rdlen)
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, fmt.Errorf("dnswire: A RDATA length %d", rdlen)
		}
		v, _ := d.uint32()
		rr.A = netx.Addr(v)
	case TypeNS:
		ns, err := d.name()
		if err != nil {
			return rr, err
		}
		rr.NS = ns
	case TypeSOA:
		var soa SOAData
		if soa.MName, err = d.name(); err != nil {
			return rr, err
		}
		if soa.RName, err = d.name(); err != nil {
			return rr, err
		}
		for _, p := range []*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
			if *p, err = d.uint32(); err != nil {
				return rr, err
			}
		}
		rr.SOA = &soa
	case TypeTXT:
		for d.off < end {
			l := int(d.buf[d.off])
			if d.off+1+l > end {
				return rr, ErrShortMessage
			}
			rr.TXT = append(rr.TXT, string(d.buf[d.off+1:d.off+1+l]))
			d.off += 1 + l
		}
	default:
		// skip unknown RDATA
	}
	if d.off > end {
		return rr, fmt.Errorf("dnswire: RDATA overrun for type %v", rr.Type)
	}
	d.off = end
	return rr, nil
}

// decodeReference is Decode as it stood before DecodeInto.
func decodeReference(b []byte) (*Message, error) {
	d := &refDecoder{buf: b}
	var m Message
	id, err := d.uint16()
	if err != nil {
		return nil, err
	}
	flags, err := d.uint16()
	if err != nil {
		return nil, err
	}
	m.Header = Header{
		ID:                 id,
		Response:           flags&(1<<15) != 0,
		Opcode:             uint8(flags >> 11 & 0xf),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xf),
	}
	counts := make([]uint16, 4)
	for i := range counts {
		if counts[i], err = d.uint16(); err != nil {
			return nil, err
		}
	}
	m.Header.QDCount, m.Header.ANCount, m.Header.NSCount, m.Header.ARCount = counts[0], counts[1], counts[2], counts[3]
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = d.name(); err != nil {
			return nil, err
		}
		t, err := d.uint16()
		if err != nil {
			return nil, err
		}
		q.Type = Type(t)
		c, err := d.uint16()
		if err != nil {
			return nil, err
		}
		q.Class = Class(c)
		m.Questions = append(m.Questions, q)
	}
	for i := 0; i < int(counts[1]); i++ {
		rr, err := d.rr()
		if err != nil {
			return nil, err
		}
		m.Answers = append(m.Answers, rr)
	}
	for i := 0; i < int(counts[2]); i++ {
		rr, err := d.rr()
		if err != nil {
			return nil, err
		}
		m.Authority = append(m.Authority, rr)
	}
	for i := 0; i < int(counts[3]); i++ {
		rr, err := d.rr()
		if err != nil {
			return nil, err
		}
		m.Additional = append(m.Additional, rr)
	}
	return &m, nil
}
