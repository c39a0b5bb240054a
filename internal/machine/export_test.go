package machine

// DrainArena empties every tier of the buffer arena, so that a test can
// read what one run leaves in it. No world may run meanwhile, so every
// arena cache is idle.
func DrainArena() {
	idleCaches.mu.Lock()
	for _, c := range idleCaches.list {
		c.freeLists = freeLists{}
	}
	idleCaches.mu.Unlock()
	globalArena.mu.Lock()
	globalArena.freeLists = freeLists{}
	globalArena.mu.Unlock()
}

// ArenaBytes sums the capacity, in bytes, of the payload buffers pooled in
// every tier of the arena. No world may run meanwhile.
func ArenaBytes() int {
	n := 0
	sum := func(f *freeLists) {
		for _, class := range f.bufs {
			for _, b := range class {
				n += 8 * cap(b)
			}
		}
	}
	idleCaches.mu.Lock()
	for _, c := range idleCaches.list {
		sum(&c.freeLists)
	}
	idleCaches.mu.Unlock()
	globalArena.mu.Lock()
	sum(&globalArena.freeLists)
	globalArena.mu.Unlock()
	return n
}

// DirectDeliveries reads machine_direct_deliveries_total.
func DirectDeliveries() uint64 { return mDirect.Value() }
