package fault

// Stream wrapper: a fault-aware io.Writer shim the fsx and journal
// layers thread their streams through. Disabled, Writer returns the
// original stream unchanged (one atomic load, no wrapper allocation),
// so production I/O paths are untouched.

import (
	"errors"
	"io"
)

// Writer wraps w with the named injection point. When the point fires
// with a short-write payload the wrapper writes only the first half of
// the buffer before returning the error — a genuinely torn write, the
// failure mode a full disk or a crash mid-write produces. A short
// write under a kill rule tears the bytes and then SIGKILLs, leaving a
// real torn tail on disk for recovery code to face.
func Writer(point string, w io.Writer) io.Writer {
	if active.Load() == nil {
		return w
	}
	return &faultWriter{point: point, w: w}
}

type faultWriter struct {
	point string
	w     io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	err := Hit(fw.point)
	if err == nil {
		return fw.w.Write(p)
	}
	if errors.Is(err, ErrShortWrite) && len(p) > 1 {
		n, werr := fw.w.Write(p[:len(p)/2])
		if werr != nil {
			return n, werr
		}
		var ie *injectedError
		if errors.As(err, &ie) && ie.kill {
			Kill()
		}
		return n, err
	}
	return 0, err
}
