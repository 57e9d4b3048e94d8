package httpfetch

import (
	"bytes"

	"repro/internal/httphead"
)

// What recogniseReply makes of the bytes buffered so far: a line is
// incomplete; a whole head, read in place; net/http's to read.
const needMore, accept, handOff = 0, 1, 2

// replyHead is a recognised reply head: a 200.
type replyHead struct {
	length int64 // Content-Length; -1 for a chunked body
	close  bool  // Connection: close
}

// recogniseReply reads b as the start of a reply. It accepts only the
// canonical head of a 200 — the status line "HTTP/1.1 200" with a
// printable reason or none, CRLF lines, header fields in httphead.Field's
// form, one Content-Length (up to 18 digits) or one Transfer-Encoding:
// chunked but not both, Connection only close or keep-alive, no Trailer
// and no Upgrade — and answers needMore only while b ends inside such a
// head. Everything else, a non-200 among it, is http.ReadResponse's: on
// what this accepts the two agree on the status, the length, the
// framing, Close and where the head ends (FuzzReplyHead).
func recogniseReply(b []byte) (h replyHead, n, verdict int) {
	framings := 0
	for line := 0; ; line++ {
		text, m, crlf := httphead.Line(b[n:])
		if m == 0 {
			return h, 0, needMore
		}
		if !crlf {
			return h, 0, handOff
		}
		n += m
		if line == 0 {
			reason, ok := bytes.CutPrefix(text, []byte("HTTP/1.1 200"))
			if !ok || len(reason) > 0 && (reason[0] != ' ' || !httphead.Printable(reason)) {
				return h, 0, handOff
			}
			continue
		}
		if len(text) == 0 {
			if framings != 1 {
				return h, 0, handOff
			}
			return h, n, accept
		}
		name, value, ok := httphead.Field(text)
		switch {
		case !ok:
		case bytes.EqualFold(name, []byte("Content-Length")):
			framings++
			h.length, ok = decimal(value)
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			framings++
			h.length, ok = -1, bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			c := bytes.EqualFold(value, []byte("close"))
			h.close, ok = h.close || c, c || bytes.EqualFold(value, []byte("keep-alive"))
		case bytes.EqualFold(name, []byte("Trailer")), bytes.EqualFold(name, []byte("Upgrade")):
			ok = false
		}
		if !ok {
			return h, 0, handOff
		}
	}
}

// decimal parses 1 to 18 decimal digits: a length no int64 overflows on.
func decimal(b []byte) (v int64, ok bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}
