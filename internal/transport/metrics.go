package transport

import "corona/internal/obs"

// Transport instruments live on the process-wide registry: a process
// hosts many conns and pumps, and what matters operationally is the
// aggregate — total queued frames across all write pumps, total stalls,
// total bytes moved. Pointers are resolved once at init so the hot
// paths pay only the atomic update.
var (
	// pumpDepth is the number of frames currently queued across every
	// live pump (both lanes).
	pumpDepth = obs.Default.Gauge("transport.pump.queue_depth")
	// pumpEnqueued counts frames accepted onto a pump queue.
	pumpEnqueued = obs.Default.Counter("transport.pump.enqueued")
	// pumpStalls counts sends rejected with ErrPumpOverflow — each one
	// is a slow receiver at the moment the server gave up on it.
	pumpStalls = obs.Default.Counter("transport.pump.stalls")
	// framesLive is the number of pooled frames made (NewSharedFrame,
	// NewChunkFrame) and not yet finally released. It returns to its
	// level once every frame a piece of work made has been written or
	// discarded, which the balance tests hold it to; a frame that leaks
	// leaves it raised.
	framesLive = obs.Default.Gauge("transport.frames_live")
	// acceptErrors counts the Accept errors Serve retried.
	acceptErrors = obs.Default.Counter("transport.accept_errors")
	// bytesIn/bytesOut count framed bytes (payload plus the 4-byte
	// length prefix) crossing every Conn in the process.
	bytesIn  = obs.Default.Counter("transport.bytes_in")
	bytesOut = obs.Default.Counter("transport.bytes_out")
	// writes counts the write and writev calls every Conn issues to its
	// socket; frames per write is what corking and the pumps' batching
	// amortize.
	writes = obs.Default.Counter("transport.writes")
	// readCoalesced counts frames consumed by ReadMessageBuffered — i.e.
	// frames that rode an already-buffered burst instead of paying a
	// blocking socket read. Every read loop drains that way (the server's
	// ingest batcher, the client's read loop, a replica's link), so the
	// ratio to total frames shows how often reads amortize.
	readCoalesced = obs.Default.Counter("transport.read_coalesced_frames")
)
