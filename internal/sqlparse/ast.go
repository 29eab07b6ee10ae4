package sqlparse

import "chronicledb/internal/value"

// Statement is any parsed statement.
type Statement interface {
	// Text is the statement as its source wrote it, from its first token to
	// the end of its last: a comment before or after it and the ';' that
	// ends it are outside. The catalog and the replication stream keep DDL
	// in this form, so it reads back exactly as it was accepted.
	Text() string
	setText(string)
}

// source holds a statement's text; every statement type embeds it.
type source struct{ text string }

func (s *source) Text() string     { return s.text }
func (s *source) setText(t string) { s.text = t }

// ColumnDef is one column of a CREATE CHRONICLE / CREATE RELATION.
type ColumnDef struct {
	Name string
	Kind value.Kind
}

// CreateGroup is "CREATE GROUP name".
type CreateGroup struct {
	source
	Name string
}

// CreateChronicle is
// "CREATE CHRONICLE name (col type, ...) [IN GROUP g]
//
//	[RETAIN ALL|NONE|n] [WINDOW chronons]".
type CreateChronicle struct {
	source
	Name   string
	Cols   []ColumnDef
	Group  string
	Retain *int64 // nil = engine default; -1 all; 0 none; n last-n
	Window *int64 // time-based retention span in chronons
}

// CreateRelation is
// "CREATE RELATION name (col type, ..., KEY(col, ...))".
type CreateRelation struct {
	source
	Name string
	Cols []ColumnDef
	Keys []string
}

// ColRef is a possibly-qualified column reference.
type ColRef struct {
	Table string // optional qualifier
	Name  string
}

// SelectItem is one output of a view's SELECT list.
type SelectItem struct {
	Agg  string // aggregation function name; empty for a plain column
	Col  ColRef // input column (ignored when Star)
	Star bool   // COUNT(*)
	As   string // output name; defaulted by the planner when empty
}

// Cond is one comparison in a WHERE clause.
type Cond struct {
	Left     ColRef
	Op       string // = != < <= > >=
	Right    value.Value
	RightCol *ColRef // non-nil for column-column comparisons
}

// BoolExpr is a conjunction of disjunctions of conditions — exactly the
// shape Definition 4.1 supports through stacked selections.
type BoolExpr struct {
	Conj [][]Cond // AND over OR-groups
}

// JoinClause joins the chronicle expression with a relation, or — with
// OnSN — with another chronicle of the same group on the sequencing
// attribute (the only chronicle-chronicle join inside CA, Definition 4.1).
type JoinClause struct {
	Relation string
	Cross    bool   // CROSS JOIN (no ON): the paper's C × R
	OnSN     bool   // JOIN <chronicle> ON SN
	On       []Cond // equality conditions for JOIN ... ON
}

// PeriodicClause is "EVERY p [WIDTH w] [OFFSET o] [EXPIRE e]" on a view.
type PeriodicClause struct {
	Period int64
	Width  int64 // 0 = Period (non-overlapping)
	Offset int64
	Expire *int64 // nil = keep forever
}

// CreateView is
//
//	CREATE [PERIODIC] VIEW name AS
//	  SELECT [DISTINCT] items FROM chronicle
//	  [JOIN rel ON c.col = rel.col [AND ...]] [CROSS JOIN rel] ...
//	  [WHERE boolexpr] [GROUP BY cols]
//	  [EVERY p [WIDTH w] [OFFSET o] [EXPIRE e]]
//	  [WITH STORE HASH|BTREE]
//
// The WITH STORE clause is accepted and ignored: every view keeps one store.
type CreateView struct {
	source
	Name     string
	Distinct bool
	Items    []SelectItem
	Star     bool // SELECT *
	From     string
	Joins    []JoinClause
	Where    *BoolExpr
	GroupBy  []ColRef
	Periodic *PeriodicClause
}

// AppendPart is one chronicle's share of an append statement.
type AppendPart struct {
	Chronicle string
	Rows      [][]value.Value
}

// Append is "APPEND INTO chronicle VALUES (...), (...) [ALSO INTO c2
// VALUES (...)]". Multiple parts form one simultaneous insert sharing a
// single sequence number — the paper's "multiple tuples with the same
// sequence number can be inserted simultaneously".
type Append struct {
	source
	Parts []AppendPart
}

// Upsert is "UPSERT INTO relation VALUES (...), (...)".
type Upsert struct {
	source
	Relation string
	Rows     [][]value.Value
}

// Delete is "DELETE FROM relation KEY (...)": a proactive delete by key.
type Delete struct {
	source
	Relation string
	Key      []value.Value
}

// Query is "SELECT * FROM view-or-relation [WHERE boolexpr]
// [ORDER BY col [DESC]] [LIMIT n]".
type Query struct {
	source
	From      string
	Where     *BoolExpr
	OrderBy   *ColRef // nil = storage order
	OrderDesc bool
	Limit     int // 0 = unlimited
}

// DropView is "DROP VIEW name" (persistent or periodic).
type DropView struct {
	source
	Name string
}

// Explain is "EXPLAIN VIEW name" (View set: describe the view) or
// "EXPLAIN SELECT ..." (Query set: describe how the query would be read).
type Explain struct {
	source
	View  string
	Query *Query
}

// Show is "SHOW VIEWS|CHRONICLES|RELATIONS|GROUPS|STATS".
type Show struct {
	source
	What string
}

// Watch is "WATCH view [FROM LSN n] [LIMIT k]": subscribe to a view's
// changefeed, streaming committed deltas in LSN order. FROM LSN resumes
// after the given cursor; LIMIT stops the stream after k delta events.
// Only streaming surfaces (the CLI, DB.Watch, GET /watch) can execute it —
// a request/response Exec cannot hold a stream open.
type Watch struct {
	source
	View    string
	FromLSN uint64
	HasFrom bool
	Limit   int // 0 = unlimited
}
