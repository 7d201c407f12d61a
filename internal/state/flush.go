package state

// Flusher is implemented by an application that keeps a by-product of the
// region on local disk (sqlstate's database image) and wants it made
// durable at flush points instead of inside every Execute. The
// application registers one with SetFlusher while it attaches to the
// region.
type Flusher interface {
	// Capture is called at a flush point: every mutation so far is
	// applied and none of the next has started. It takes whatever
	// changed since the previous Capture — copies, or page views, which
	// never change — and returns the number of pages taken and a persist
	// function that does only file I/O on those bytes — safe to run
	// concurrently with later mutations and later Captures. The caller invokes the persists strictly in capture
	// order, one at a time. A nil persist means there is nothing to
	// write. A persist error concerns the local by-product only; it must
	// leave the region untouched.
	Capture() (pages int, persist func() error)
	// Invalidate reports that region pages were rewritten underneath the
	// application (Restore, ApplyPage): what it tracked since the last
	// Capture no longer describes the difference between the region and
	// the by-product. It must not call back into the region.
	Invalidate()
}

// DriveFlushes declares that the region's owner will run the flush
// points: it calls the registered Flusher's Capture at boundaries of its
// choosing and sends nothing that depends on a mutation before that
// mutation's persist returned. The owner calls it once, before the
// application attaches. In a region nobody drives, an application with a
// by-product flushes it itself after every mutation.
func (r *Region) DriveFlushes() { r.flushDriven = true }

// FlushesDriven reports whether the owner declared DriveFlushes.
func (r *Region) FlushesDriven() bool { return r.flushDriven }

// SetFlusher registers the application's flusher (nil clears it).
func (r *Region) SetFlusher(f Flusher) { r.flusher = f }

// Flusher returns the registered flusher, nil when the application keeps
// no by-product.
func (r *Region) Flusher() Flusher { return r.flusher }
