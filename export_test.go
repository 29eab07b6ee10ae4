package chronicledb

import "chronicledb/internal/shard"

// FeedHeadLSN returns the LSN of the last changefeed frame published for
// view: what a watcher of db that has caught up has seen. It is compiled
// into this package's tests only.
func FeedHeadLSN(db *DB, view string) uint64 { return db.hub.HeadLSN(view) }

// Kernel returns db's kernel, for the tests that need what no statement
// reaches: the LSN, the catalog's names and homes, a view made from a
// definition no statement spells, a family's instances and counters. It is
// compiled into this package's tests only; a test that only reads rows
// reads them through SQL.
func Kernel(db *DB) *shard.Router { return db.eng }
