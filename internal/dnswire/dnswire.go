// Package dnswire implements the subset of the DNS wire format (RFC 1035)
// that the measurement platform exercises: message header, question section,
// and A/NS/SOA/TXT resource records, including name compression on encode
// and decode.
//
// The authoritative server (internal/authserver) and the stub resolver
// (internal/resolver, real-socket mode) speak this format over actual UDP
// and TCP sockets, so the reproduction exercises a genuine DNS data path
// rather than an in-memory shortcut.
//
// There is one encoder and one decoder. AppendEncode writes into the
// caller's buffer and pools its compression table; DecodeInto fills a
// caller's Message, with every name a substring of one arena made per
// call. Encode and Decode wrap them with a fresh buffer and a fresh
// Message; reference_test.go holds them to the codec they replaced
// (DESIGN §3.11).
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"dnsddos/internal/netx"
)

// Type is a DNS RR type.
type Type uint16

// RR types used by the platform. OpenINTEL's relevant probe here is the
// explicit NS query (§3.2); A records appear in glue and in the census
// probes; SOA backs negative responses.
const (
	TypeA   Type = 1
	TypeNS  Type = 2
	TypeSOA Type = 6
	TypeTXT Type = 16
)

// String renders the mnemonic.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeOPT:
		return "OPT"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes the platform distinguishes. OpenINTEL's status codes
// (OK, SERVFAIL, TIMEOUT, §3.2) map onto these plus a transport-level
// timeout that never reaches the wire.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String renders the mnemonic.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// Header is the 12-byte DNS message header.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
	QDCount            uint16
	ANCount            uint16
	NSCount            uint16
	ARCount            uint16
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is a resource record. Exactly one of the typed data fields is
// meaningful, selected by Type.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	A   netx.Addr // TypeA
	NS  string    // TypeNS: nameserver host name
	SOA *SOAData  // TypeSOA
	TXT []string  // TypeTXT
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// errors returned by the decoder.
var (
	ErrShortMessage = errors.New("dnswire: short message")
	ErrBadName      = errors.New("dnswire: malformed name")
	ErrBadPointer   = errors.New("dnswire: bad compression pointer")
)

// maxNameLen caps encoded name length per RFC 1035 §2.3.4.
const maxNameLen = 255

// CanonicalName lowercases and strips the trailing dot so names compare
// consistently as map keys throughout the platform. DNS case folding is
// ASCII-only (RFC 4343): only the bytes 'A'–'Z' change, so the result is
// never longer than the name, and a name without one comes back as the
// same string, unallocated.
func CanonicalName(name string) string {
	name = strings.TrimSuffix(name, ".")
	for i := 0; i < len(name); i++ {
		if 'A' <= name[i] && name[i] <= 'Z' {
			b := []byte(name)
			for ; i < len(b); i++ {
				if 'A' <= b[i] && b[i] <= 'Z' {
					b[i] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return name
}

// encoder appends one message to buf. Compression offsets count from
// base, the length of buf when the message began, so a caller may have
// reserved a prefix (the 2-byte TCP length) in front of it.
type encoder struct {
	buf  []byte
	base int
	// names maps a canonical name suffix to the offset of its first
	// encoding. The keys are substrings of the names being encoded, so
	// filling the table copies nothing.
	names map[string]int
}

// encoderPool keeps the suffix tables between messages. An encoder goes
// back without its buffer and with its table cleared, unless one huge
// message grew the table: clearing costs its size, every time after.
var encoderPool = sync.Pool{New: func() any { return &encoder{names: make(map[string]int)} }}

const maxPooledNames = 256

func (e *encoder) putUint16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

func (e *encoder) putUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// putName encodes a domain name with compression.
func (e *encoder) putName(name string) error {
	name = CanonicalName(name)
	if name == "" {
		e.buf = append(e.buf, 0)
		return nil
	}
	// uncompressed, a name is one length octet per label plus the root's
	if wire := len(name) + 2; wire > maxNameLen {
		return fmt.Errorf("%w: %d octets on the wire", ErrBadName, wire)
	}
	for suffix, more := name, true; more; {
		if off, ok := e.names[suffix]; ok && off < 0x3fff {
			e.putUint16(0xc000 | uint16(off))
			return nil
		}
		if off := len(e.buf) - e.base; off < 0x3fff {
			e.names[suffix] = off
		}
		var label string
		label, suffix, more = strings.Cut(suffix, ".")
		if len(label) == 0 || len(label) > 63 {
			return fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *encoder) putRR(rr *RR) error {
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

// message appends the header, fixing up the section counts from the
// actual slice lengths, and the four sections.
func (e *encoder) message(m *Message) error {
	h := &m.Header
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
	e.putUint16(uint16(len(m.Questions)))
	e.putUint16(uint16(len(m.Answers)))
	e.putUint16(uint16(len(m.Authority)))
	e.putUint16(uint16(len(m.Additional)))

	for i := range m.Questions {
		q := &m.Questions[i]
		if err := e.putName(q.Name); err != nil {
			return err
		}
		e.putUint16(uint16(q.Type))
		e.putUint16(uint16(q.Class))
	}
	for _, section := range [...][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range section {
			if err := e.putRR(&section[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendEncode serializes the message onto the end of dst and returns the
// extended buffer, allocating nothing when dst has room. Compression
// offsets count from len(dst), so dst may already hold a prefix (a TCP
// length) or an earlier message. On error it returns dst as it was given.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	e.buf, e.base = dst, len(dst)
	err := e.message(m)
	out := e.buf
	e.buf = nil
	if len(e.names) <= maxPooledNames {
		clear(e.names)
		encoderPool.Put(e)
	}
	if err != nil {
		return dst, err
	}
	return out, nil
}

// Encode serializes the message into a fresh buffer, fixing up the
// section counts from the actual slice lengths.
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 512), m)
}

// maxPointerHops bounds the compression pointers one name may follow.
const maxPointerHops = 16

// decoder reads one message. Every name it decodes is written once into
// arena and handed out as a substring of it: a Builder only appends, so
// a substring taken earlier stays valid, and immutable, however the
// arena grows afterwards.
type decoder struct {
	buf   []byte
	off   int
	arena strings.Builder
	// seen lists the first names that put text into the arena. A later
	// name that is nothing but a pointer to one of them (a record owner
	// repeating the question, glue repeating an NS target) takes its
	// text from here instead of writing it again.
	seen  [16]seenName
	nseen int
}

// seenName is a decoded name: where it starts on the wire, how many
// pointers it followed, and its text.
type seenName struct {
	off, hops int
	text      string
}

// name decodes the possibly compressed name at d.off and leaves d.off
// just past its in-place encoding. The length limit holds for the whole
// name after every label, whichever side of a pointer the label is on,
// and a separator is written only in front of a label.
func (d *decoder) name() (string, error) {
	first, start := d.off, d.arena.Len()
	off, hops := first, 0
	for {
		if off >= len(d.buf) {
			return "", ErrShortMessage
		}
		l := int(d.buf[off])
		switch {
		case l == 0:
			if hops == 0 {
				d.off = off + 1
			}
			text := d.arena.String()[start:]
			if text != "" && d.nseen < len(d.seen) {
				d.seen[d.nseen] = seenName{off: first, hops: hops, text: text}
				d.nseen++
			}
			return text, nil
		case l&0xc0 == 0xc0:
			if off+2 > len(d.buf) {
				return "", ErrShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(d.buf[off:]) & 0x3fff)
			if ptr >= off {
				return "", ErrBadPointer
			}
			if hops++; hops > maxPointerHops {
				return "", ErrBadPointer
			}
			if hops == 1 {
				d.off = off + 2
			}
			if off == first { // the whole name is this pointer
				for _, s := range d.seen[:d.nseen] {
					if s.off == ptr && s.hops < maxPointerHops {
						return s.text, nil
					}
				}
			}
			off = ptr
		case l > 63:
			return "", ErrBadName
		default:
			if off+1+l > len(d.buf) {
				return "", ErrShortMessage
			}
			if d.arena.Len() > start {
				d.arena.WriteByte('.')
			}
			d.arena.Write(d.buf[off+1 : off+1+l])
			if d.arena.Len()-start > maxNameLen {
				return "", ErrBadName
			}
			off += 1 + l
		}
	}
}

// rr decodes one record into *rr, which the caller has zeroed.
func (d *decoder) rr(rr *RR) error {
	var err error
	if rr.Name, err = d.name(); err != nil {
		return err
	}
	if d.off+10 > len(d.buf) {
		return ErrShortMessage
	}
	fixed := d.buf[d.off:]
	rr.Type = Type(binary.BigEndian.Uint16(fixed))
	rr.Class = Class(binary.BigEndian.Uint16(fixed[2:]))
	rr.TTL = binary.BigEndian.Uint32(fixed[4:])
	rdlen := int(binary.BigEndian.Uint16(fixed[8:]))
	d.off += 10
	end := d.off + rdlen
	if end > len(d.buf) {
		return ErrShortMessage
	}
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return fmt.Errorf("dnswire: A RDATA length %d", rdlen)
		}
		rr.A = netx.Addr(binary.BigEndian.Uint32(d.buf[d.off:]))
	case TypeNS:
		if rr.NS, err = d.name(); err != nil {
			return err
		}
	case TypeSOA:
		var soa SOAData
		if soa.MName, err = d.name(); err != nil {
			return err
		}
		if soa.RName, err = d.name(); err != nil {
			return err
		}
		if d.off+20 > len(d.buf) {
			return ErrShortMessage
		}
		for i, p := range [...]*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
			*p = binary.BigEndian.Uint32(d.buf[d.off+4*i:])
		}
		d.off += 20
		rr.SOA = &soa
	case TypeTXT:
		for d.off < end {
			l := int(d.buf[d.off])
			if d.off+1+l > end {
				return ErrShortMessage
			}
			rr.TXT = append(rr.TXT, string(d.buf[d.off+1:d.off+1+l]))
			d.off += 1 + l
		}
	default:
		// skip unknown RDATA
	}
	if d.off > end {
		return fmt.Errorf("dnswire: RDATA overrun for type %v", rr.Type)
	}
	d.off = end
	return nil
}

// section decodes n records onto the end of dst.
func (d *decoder) section(dst []RR, n uint16) ([]RR, error) {
	for ; n > 0; n-- {
		dst = append(dst, RR{})
		if err := d.rr(&dst[len(dst)-1]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// The smallest question (root name, type, class) and record (root name,
// ten fixed octets): they bound how many entries a message of a given
// length can hold, whatever its header claims.
const minQuestionLen, minRRLen = 5, 11

// carve cuts a section with room for n records off the front of the slab;
// a section without records stays nil, as appending to nothing leaves it.
func carve(slab *[]RR, n int) []RR {
	if n == 0 {
		return nil
	}
	s := (*slab)[:0:n]
	*slab = (*slab)[n:]
	return s
}

// DecodeInto parses a DNS message into m, reusing the room m's four
// sections already have; what m held before is gone, and after an error
// m is unspecified. A fresh m gets its three record sections from one
// slab sized by the header counts, as far as the bytes present could
// hold that many. Names are substrings of one arena made per call, so
// nothing a previous DecodeInto returned changes, and keeping one name
// keeps that one message's arena (about the message's own size) alive.
func DecodeInto(m *Message, b []byte) error {
	if len(b) < 12 {
		return ErrShortMessage
	}
	flags := binary.BigEndian.Uint16(b[2:])
	m.Header = Header{
		ID:                 binary.BigEndian.Uint16(b),
		Response:           flags&(1<<15) != 0,
		Opcode:             uint8(flags >> 11 & 0xf),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xf),
		QDCount:            binary.BigEndian.Uint16(b[4:]),
		ANCount:            binary.BigEndian.Uint16(b[6:]),
		NSCount:            binary.BigEndian.Uint16(b[8:]),
		ARCount:            binary.BigEndian.Uint16(b[10:]),
	}
	d := decoder{buf: b, off: 12}
	d.arena.Grow(len(b))

	var err error
	h := &m.Header
	m.Questions = m.Questions[:0]
	if qd := min(int(h.QDCount), (len(b)-d.off)/minQuestionLen); cap(m.Questions) < qd {
		m.Questions = make([]Question, 0, qd)
	}
	for i := 0; i < int(h.QDCount); i++ {
		var q Question
		if q.Name, err = d.name(); err != nil {
			return err
		}
		if d.off+4 > len(b) {
			return ErrShortMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(b[d.off:]))
		q.Class = Class(binary.BigEndian.Uint16(b[d.off+2:]))
		d.off += 4
		m.Questions = append(m.Questions, q)
	}

	room := (len(b) - d.off) / minRRLen
	an := min(int(h.ANCount), room)
	ns := min(int(h.NSCount), room-an)
	ar := min(int(h.ARCount), room-an-ns)
	if cap(m.Answers) >= an && cap(m.Authority) >= ns && cap(m.Additional) >= ar {
		m.Answers, m.Authority, m.Additional = m.Answers[:0], m.Authority[:0], m.Additional[:0]
	} else {
		slab := make([]RR, an+ns+ar)
		m.Answers, m.Authority, m.Additional = carve(&slab, an), carve(&slab, ns), carve(&slab, ar)
	}
	if m.Answers, err = d.section(m.Answers, h.ANCount); err != nil {
		return err
	}
	if m.Authority, err = d.section(m.Authority, h.NSCount); err != nil {
		return err
	}
	m.Additional, err = d.section(m.Additional, h.ARCount)
	return err
}

// Decode parses a DNS message into a fresh Message that is the caller's
// to keep.
func Decode(b []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// NewQuery builds a standard query message for (name, type).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: false},
		Questions: []Question{{Name: CanonicalName(name), Type: t, Class: ClassIN}},
	}
}
