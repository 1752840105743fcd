// Preloaded (LD_PRELOAD) into fwdecayd by serve_ingest: fsync and
// fdatasync return at once, as they do on tmpfs. The daemon still opens,
// appends and closes its journal; only the wait for the disk is gone, so
// the served numbers follow the daemon's own work rather than a disk
// shared with other tenants of the machine.

extern "C" int fsync(int /*fd*/) { return 0; }
extern "C" int fdatasync(int /*fd*/) { return 0; }
