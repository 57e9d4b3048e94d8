package httphead

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/textproto"
)

// Chunked decodes a chunked body: net/http's chunked reader (the one
// httputil.NewChunkedReader returns) and, at the last chunk, the trailer
// read of net/http's body, re-stated so that a read allocates nothing
// but a trailer section's header map. Both decode the same bytes and
// fail on the same inputs; httpfetch's FuzzReplyHead holds them to it.
// Reset it onto a reader before use.
type Chunked struct {
	r        *bufio.Reader
	n        uint64 // unread bytes of the current chunk
	excess   int64  // chunk-line overhead beyond what the data pays for
	checkEnd bool   // the chunk's data is read, its CRLF not yet
	crlf     [2]byte
	err      error // sticky; io.EOF once the trailer section is read
}

var (
	errChunkLineTooLong = errors.New("httphead: chunk line too long")
	errChunkMalformed   = errors.New("httphead: malformed chunked encoding")
	errChunkNonData     = errors.New("httphead: chunked encoding contains too much non-data")
	errChunkLength      = errors.New("httphead: bad chunk length")
	errTrailerEOF       = errors.New("httphead: unexpected EOF reading trailer")
	errTrailerTooLong   = errors.New("httphead: trailer past the read buffer")
)

// Reset starts decoding a body whose first chunk line r reads next.
func (cr *Chunked) Reset(r *bufio.Reader) { *cr = Chunked{r: r} }

// Read reads the body as net/http's reader does, returning early rather
// than blocking once it has data; io.EOF follows the trailer section.
func (cr *Chunked) Read(p []byte) (n int, err error) {
	for cr.err == nil {
		if cr.checkEnd {
			if n > 0 && cr.r.Buffered() < 2 {
				break
			}
			if _, cr.err = io.ReadFull(cr.r, cr.crlf[:]); cr.err != nil {
				if cr.err == io.EOF {
					cr.err = io.ErrUnexpectedEOF
				}
				break
			}
			if string(cr.crlf[:]) != "\r\n" {
				cr.err = errChunkMalformed
				break
			}
			cr.checkEnd = false
		}
		if cr.n == 0 {
			if b, _ := cr.r.Peek(cr.r.Buffered()); n > 0 && bytes.IndexByte(b, '\n') < 0 {
				break // the next chunk line is not buffered whole
			}
			cr.err = cr.beginChunk()
			continue
		}
		if len(p) == 0 {
			break
		}
		m, rerr := cr.r.Read(p[:min(uint64(len(p)), cr.n)])
		n, p, cr.n, cr.err = n+m, p[m:], cr.n-uint64(m), rerr
		if cr.n == 0 && rerr == nil {
			cr.checkEnd = true
		} else if rerr == io.EOF {
			cr.err = io.ErrUnexpectedEOF
		}
	}
	return n, cr.err
}

// beginChunk reads a chunk line: its size in hex, extensions ignored.
// The last chunk's is followed by the trailer section.
func (cr *Chunked) beginChunk() error {
	line, err := cr.r.ReadSlice('\n')
	switch {
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	case err == bufio.ErrBufferFull, err == nil && len(line) >= 4096:
		return errChunkLineTooLong
	case err != nil:
		return err
	}
	cr.excess += int64(len(line)) + 2
	line = bytes.TrimRight(line, " \t\r\n")
	line, _, _ = bytes.Cut(line, []byte(";"))
	if len(line) == 0 || len(line) > 16 {
		return errChunkLength
	}
	cr.n = 0
	for _, c := range line {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return errChunkLength
		}
		cr.n = cr.n<<4 | uint64(c)
	}
	// At most 16 bytes of overhead a chunk, plus twice its data.
	cr.excess = max(cr.excess-16-2*int64(cr.n), 0)
	if cr.n == 0 {
		return cr.readTrailer()
	}
	if cr.excess > 16<<10 {
		return errChunkNonData
	}
	return nil
}

// readTrailer reads the trailer section, which must end within the read
// buffer, and returns io.EOF: the body's end.
func (cr *Chunked) readTrailer() error {
	if b, _ := cr.r.Peek(2); string(b) == "\r\n" {
		cr.r.Discard(2)
		return io.EOF
	} else if len(b) < 2 {
		return errTrailerEOF
	}
	for k := 4; ; k++ {
		b, err := cr.r.Peek(k)
		if bytes.HasSuffix(b, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errTrailerTooLong
		}
	}
	switch _, err := textproto.NewReader(cr.r).ReadMIMEHeader(); err {
	case nil:
		return io.EOF
	case io.EOF:
		return errTrailerEOF
	default:
		return err
	}
}
