// The benchmark's storage medium: tmpfs semantics inside the checkout.
//
// The workloads keep every durability call the program makes — the
// end-of-statement FlushAll, the page-file fsync, the WAL group-commit
// fsync — but the database directory must live inside the benchmark's own
// checkout, which sits on whatever disk the host gives it. On a virtual disk
// fsync turns a 1% delete from ~80 ms into ~900 ms, and that time measures
// the host's disk, not the program. tmpfs, where fsync returns at once,
// is the medium the figures are defined on; these definitions give the
// benchmark binary the same behaviour on any filesystem. They replace the C
// library's functions for this executable only (the library itself is
// unchanged), and the program still counts every call (disk.syncs,
// wal.fsyncs). Data written with pwrite stays in the page cache, which is
// all a simulated crash (SimulateCrashAndRecover) relies on.
extern "C" int fsync(int fd) {
  (void)fd;
  return 0;
}

extern "C" int fdatasync(int fd) {
  (void)fd;
  return 0;
}
