// Package httphead scans HTTP/1.1 heads in place, in the bytes a
// connection has already buffered. It serves two recognisers that take
// the common, canonical head themselves and hand every other one to
// net/http: cmd/prefetchd's request loop (in front of http.ReadRequest)
// and httpfetch's origin wire (in front of http.ReadResponse). Both read
// a head line by line with Line and a header field with Field, so both
// end lines and split fields where net/http does, and neither allocates.
// Chunked decodes a chunked body behind such a head as net/http does,
// without allocating either.
package httphead

import (
	"bytes"
	"strings"
)

// AlnumBytes are the ASCII letters and digits; a header name is made of
// them and tokenBytes' punctuation (an RFC 9110 token).
const (
	AlnumBytes = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	tokenBytes = AlnumBytes + "!#$%&'*+-.^_`|~"
)

// Only reports whether every byte of b is in set.
func Only(b []byte, set string) bool {
	for _, c := range b {
		if strings.IndexByte(set, c) < 0 {
			return false
		}
	}
	return true
}

// Printable reports whether b holds no control byte: no CR, LF or tab.
func Printable(b []byte) bool {
	for _, c := range b {
		if c < ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// Line finds the line at the start of b, which net/http ends at its
// first LF. n is the line's length with its terminator, 0 when b holds
// no LF yet; crlf reports a CR before the LF, and text is then the line
// without its CRLF. A line ended by a bare LF (crlf false, n > 0) is one
// only net/http reads.
func Line(b []byte) (text []byte, n int, crlf bool) {
	n = bytes.IndexByte(b, '\n') + 1
	if n < 2 || b[n-2] != '\r' {
		return nil, n, false
	}
	return b[:n-2], n, true
}

// Field splits a header line into its name and its value, trimmed of
// spaces. ok reports a well-formed field in the narrow form both
// recognisers take: a token name, a colon, and a value of printable
// bytes (no tab, no obs-fold: a line that starts with a space has no
// token name).
func Field(line []byte) (name, value []byte, ok bool) {
	name, value, ok = bytes.Cut(line, []byte(":"))
	if !ok || len(name) == 0 || !Only(name, tokenBytes) || !Printable(value) {
		return nil, nil, false
	}
	return name, bytes.Trim(value, " "), true
}
