package chronicledb

// FeedHeadLSN returns the LSN of the last changefeed frame published for
// view: what a watcher of db that has caught up has seen. It is compiled
// into this package's tests only.
func FeedHeadLSN(db *DB, view string) uint64 { return db.hub.HeadLSN(view) }
