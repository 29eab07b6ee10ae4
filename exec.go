package chronicledb

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"

	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/engine"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/pred"
	"chronicledb/internal/shard"
	"chronicledb/internal/sqlparse"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
)

// Exec parses and executes one or more semicolon-separated statements,
// returning the result of the last one.
func (db *DB) Exec(src string) (*Result, error) {
	stmts, err := sqlparse.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("chronicledb: empty statement")
	}
	var res *Result
	for _, s := range stmts {
		res, err = db.execOne(s, execLive)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// execMode distinguishes the three statement execution contexts.
type execMode uint8

const (
	// execLive is normal client execution: writes are gated (read-only
	// latch and replica role), DDL is persisted to the catalog and staged
	// for replication.
	execLive execMode = iota
	// execRecovery replays the catalog and WAL tail at open: no gates, no
	// catalog writes (the statement came from the catalog), but the DDL
	// counter still advances so it ends equal to the catalog length.
	execRecovery
	// execReplica applies a replicated DDL frame on a follower: the role
	// gate is skipped (the stream is the follower's only writer) but the
	// statement is appended to the follower's own catalog — and staged to
	// its own source, for cascading followers and post-promotion serving.
	execReplica
)

// execOne executes one statement in the given mode.
func (db *DB) execOne(s sqlparse.Statement, mode execMode) (*Result, error) {
	if mode != execRecovery { // reject writes once degraded
		switch s.(type) {
		case *sqlparse.CreateGroup, *sqlparse.CreateChronicle, *sqlparse.CreateRelation,
			*sqlparse.CreateView, *sqlparse.DropView, *sqlparse.Append,
			*sqlparse.Upsert, *sqlparse.Delete:
			if err := db.writeGate(); err != nil {
				return nil, err
			}
			if mode == execLive {
				if err := db.roleGate(); err != nil {
					return nil, err
				}
			}
		}
	}
	switch s.(type) {
	case *sqlparse.CreateGroup, *sqlparse.CreateChronicle, *sqlparse.CreateRelation,
		*sqlparse.CreateView, *sqlparse.DropView:
		// A DDL statement changes the engine and the catalog as one step
		// under db.mu, which a checkpoint holds too: the catalog prefix a
		// chain records is exactly the DDL its images reflect.
		db.mu.Lock()
		defer db.mu.Unlock()
	}
	switch s := s.(type) {
	case *sqlparse.CreateGroup:
		if _, err := db.eng.CreateGroup(s.Name); err != nil {
			return nil, err
		}
		return db.ddlDone(s, mode, "group %s created", s.Name)

	case *sqlparse.CreateChronicle:
		schema, err := schemaOf(s.Cols)
		if err != nil {
			return nil, err
		}
		var retain *chronicle.Retention
		if s.Retain != nil {
			r := chronicle.Retention(*s.Retain)
			retain = &r
		}
		c, err := db.eng.CreateChronicle(s.Name, s.Group, schema, retain)
		if err != nil {
			return nil, err
		}
		if s.Window != nil {
			if err := c.SetRetainSpan(*s.Window); err != nil {
				return nil, err
			}
		}
		return db.ddlDone(s, mode, "chronicle %s created", s.Name)

	case *sqlparse.CreateRelation:
		schema, err := schemaOf(s.Cols)
		if err != nil {
			return nil, err
		}
		keyCols := make([]int, len(s.Keys))
		for i, k := range s.Keys {
			idx, ok := schema.Index(k)
			if !ok {
				return nil, fmt.Errorf("chronicledb: key column %q not in relation %s", k, s.Name)
			}
			keyCols[i] = idx
		}
		if _, err := db.eng.CreateRelation(s.Name, schema, keyCols); err != nil {
			return nil, err
		}
		return db.ddlDone(s, mode, "relation %s created", s.Name)

	case *sqlparse.CreateView:
		plan, err := sqlparse.PlanView(db, s)
		if err != nil {
			return nil, err
		}
		kind := "view"
		if plan.Periodic != nil {
			kind = "periodic view"
			_, err = db.eng.CreatePeriodicView(s.Name, plan.Def, plan.Periodic.Calendar,
				plan.Periodic.ExpireAfter)
		} else {
			_, err = db.eng.CreateView(plan.Def)
		}
		if err != nil {
			return nil, err
		}
		res, err := db.ddlDone(s, mode, "%s %s created (%s, %s)", kind, s.Name, plan.Info.Lang, plan.Info.IMClass())
		if err == nil {
			db.catalogViews[s.Name] = true
		}
		return res, err

	case *sqlparse.Append:
		total := 0
		parts := make([]wal.Part, len(s.Parts))
		for i, p := range s.Parts {
			tuples := tuplesOf(p.Rows)
			parts[i] = wal.Part{Chronicle: p.Chronicle, Tuples: tuples}
			total += len(tuples)
		}
		sn, _, _, err := db.eng.Append(wal.Record{Kind: wal.RecAppend, Parts: parts})
		if err != nil {
			return nil, err
		}
		if mode == execLive {
			db.ackWait()
		}
		if len(parts) == 1 {
			return &Result{Message: fmt.Sprintf("appended %d tuple(s) at sequence number %d", total, sn)}, nil
		}
		return &Result{Message: fmt.Sprintf("appended %d tuple(s) across %d chronicles at sequence number %d",
			total, len(parts), sn)}, nil

	case *sqlparse.DropView:
		if err := db.eng.DropView(s.Name); err != nil {
			return nil, err
		}
		delete(db.catalogViews, s.Name)
		return db.ddlDone(s, mode, "view %s dropped", s.Name)

	case *sqlparse.Upsert:
		tuples := make([]value.Tuple, len(s.Rows))
		for i, r := range s.Rows {
			tuples[i] = value.Tuple(r)
		}
		if err := db.eng.Upsert(s.Relation, tuples...); err != nil {
			return nil, err
		}
		if mode == execLive {
			db.ackWait()
		}
		return &Result{Message: fmt.Sprintf("upserted %d tuple(s)", len(s.Rows))}, nil

	case *sqlparse.Delete:
		deleted, err := db.eng.DeleteKey(s.Relation, value.Tuple(s.Key))
		if err != nil {
			return nil, err
		}
		if !deleted {
			return &Result{Message: "no such key"}, nil
		}
		if mode == execLive {
			db.ackWait()
		}
		return &Result{Message: "deleted 1 tuple"}, nil

	case *sqlparse.Query:
		return db.query(s)

	case *sqlparse.Explain:
		if s.Query != nil {
			return db.explainQuery(s.Query)
		}
		return db.explain(s.View)

	case *sqlparse.Show:
		return db.show(s.What)

	case *sqlparse.Watch:
		// Exec is request/response; a changefeed needs a stream. Point the
		// caller at the surfaces that can hold one open.
		return nil, fmt.Errorf("chronicledb: WATCH streams continuously and cannot run through Exec; use the CLI, DB.Watch, or GET /watch")

	default:
		return nil, fmt.Errorf("chronicledb: unsupported statement %T", s)
	}
}

// ddlDone persists a DDL statement to the catalog, its text as the client
// wrote it, and acknowledges it.
func (db *DB) ddlDone(s sqlparse.Statement, mode execMode, format string, args ...any) (*Result, error) {
	if mode == execRecovery {
		// The statement came from the catalog; count it so ddlSeq ends
		// equal to the catalog length without rewriting the file it was
		// read from.
		db.ddlSeq.Add(1)
	} else if err := db.commitDDL(s.Text()); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf(format, args...)}, nil
}

// commitDDL makes one DDL statement durable and replicable: it appends the
// statement to catalog.sql (fsynced), assigns it the next catalog index,
// and stages it for the replication stream stamped with the engine's
// current LSN frontier — the record order it must follow on a follower.
// The caller holds db.mu, so index assignment, the catalog append, and
// staging cannot interleave catalog order and stream order differently.
func (db *DB) commitDDL(stmt string) error {
	if db.catalogPath != "" {
		f, err := db.fs.OpenFile(db.catalogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("chronicledb: catalog: %w", err)
		}
		defer f.Close()
		if _, err := fmt.Fprintf(f, "%s;\n", stmt); err != nil {
			return fmt.Errorf("chronicledb: catalog: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("chronicledb: catalog: %w", err)
		}
		// The first append creates catalog.sql; sync its directory entry so
		// the schema cannot vanish in a power cut after the DDL was acked.
		if !db.catalogSynced {
			if err := db.fs.SyncDir(db.opts.Dir); err != nil {
				return fmt.Errorf("chronicledb: catalog: %w", err)
			}
			db.catalogSynced = true
		}
	}
	idx := db.ddlSeq.Add(1) - 1
	if db.replSrc != nil {
		db.replSrc.StageDDL(idx, db.eng.LSN(), stmt)
	}
	return nil
}

// query answers SELECT * FROM <view|periodic view|relation|chronicle>.
func (db *DB) query(q *sqlparse.Query) (*Result, error) {
	v, ok, err := db.resolve(q.From, q.Interval)
	switch {
	case err != nil:
		return nil, err
	case ok:
		return db.queryView(v, q)
	case q.Interval != nil:
		return nil, fmt.Errorf("chronicledb: FOR INTERVAL reads a periodic view; %q is not one", q.From)
	}
	if r, ok := db.eng.Relation(q.From); ok {
		rows, err := db.eng.RelationRows(q.From)
		if err != nil {
			return nil, err
		}
		return filterRows(r.Schema().Names(), rows, q)
	}
	if c, ok := db.eng.Chronicle(q.From); ok {
		// Detailed queries over the retained window: SN and chronon are
		// exposed as leading pseudo-columns.
		names := append([]string{"_sn", "_chronon"}, c.Schema().Names()...)
		crows, err := db.eng.ChronicleRows(q.From)
		if err != nil {
			return nil, err
		}
		rows := make([]Row, 0, len(crows))
		for _, r := range crows {
			row := make(Row, 0, len(r.Vals)+2)
			row = append(row, value.Int(r.SN), value.Chronon(r.Chronon))
			row = append(row, r.Vals...)
			rows = append(rows, row)
		}
		return filterRows(names, rows, q)
	}
	return nil, fmt.Errorf("chronicledb: unknown view, relation, or chronicle %q", q.From)
}

// resolve is the read path's one resolve step: it turns what a read names
// into the view it reads, once per statement. A persistent view's name is
// the view. A periodic family's name is one of its instances (Section 5.1):
// with start, the live instance whose interval starts there — ErrNoInstance
// when none does — and without, the live instance with the latest start, or
// the family's empty probe while none is live. Both come from the family's
// published list of live instances, without a lock. ok is false for a name
// that is neither.
func (db *DB) resolve(name string, start *int64) (v *view.View, ok bool, err error) {
	if v, ok := db.eng.View(name); ok {
		if start != nil {
			return nil, true, fmt.Errorf("chronicledb: FOR INTERVAL reads a periodic view; %q is a view", name)
		}
		return v, true, nil
	}
	pv, ok := db.eng.PeriodicView(name)
	if !ok {
		return nil, false, nil
	}
	if start == nil {
		if inst, ok := pv.Latest(); ok {
			return inst.View, true, nil
		}
		return pv.Probe(), true, nil
	}
	if inst, ok := pv.Starting(*start); ok {
		return inst.View, true, nil
	}
	return nil, true, fmt.Errorf("%w: periodic view %q has none whose interval starts at %d", ErrNoInstance, name, *start)
}

// queryView answers a SELECT over a view — a persistent view or the
// instance of a family that resolve found — from the view's index:
// planAccess turns the WHERE clause into a probe of one group key or a walk
// of one key window, and the rows come from ViewLookup or the one ViewScan
// entry. Only an ORDER BY the walk cannot deliver — a non-key column, or a
// key column behind one the WHERE leaves open — sorts what the window
// yields before LIMIT applies. LIMIT 0 reads nothing.
func (db *DB) queryView(v *view.View, q *sqlparse.Query) (*Result, error) {
	a, err := planAccess(v, q)
	if err != nil {
		return nil, err
	}
	var rows []Row
	switch {
	case q.Limit == 0:
	case a.point != nil:
		if row, ok := db.eng.ViewLookup(v, a.point); ok && matchesAll(a.residual, row) {
			rows = []Row{row}
		}
	default:
		rows = db.collect(v, a.win)
	}
	if !a.ordered {
		rows = sortRows(rows, a.orderCol, q.OrderDesc, q.Limit)
	}
	return &Result{Columns: v.Schema().Names(), Rows: rows}, nil
}

// access is how one SELECT reads a view.
type access struct {
	// point is the whole group key when the WHERE clause pins every key
	// column to a literal: the read is one probe. Otherwise win is the walk.
	point value.Tuple
	win   view.Window
	// residual is the whole WHERE clause, pushed atoms included: the window
	// only has to contain the answer, the residual decides it. That is what
	// keeps NULLs and a literal of the other numeric kind than its column
	// from changing an answer.
	residual []pred.Predicate
	// ordered says the walk yields the answer's order, so LIMIT went into
	// the window; otherwise the rows are sorted by orderCol afterwards.
	ordered  bool
	orderCol int
	// lo and hi are the window's bounds as planned, for EXPLAIN to spell.
	lo, hi bound
}

// planAccess is the read path's planner step. A view's group-key columns
// are the leading columns of its schema and its store is keyed on their
// memcomparable encoding, so a conjunction over them is a key window:
// single-literal "=" atoms on key columns 0..i-1 make an encoded prefix that
// every matching key starts with, "<", "<=", ">", ">=" atoms on column i
// bound the keys under that prefix, and "=" on every key column is one key.
// OR-groups, "!=", column-to-column atoms and atoms on other columns bound
// nothing and only filter. ORDER BY is the walk's direction when it names a
// key column no later than i (the pinned ones do not order anything).
func planAccess(v *view.View, q *sqlparse.Query) (access, error) {
	names := v.Schema().Names()
	preds, err := sqlparse.LowerWhere(names, q.Where)
	if err != nil {
		return access{}, err
	}
	orderCol, err := resolveOrder(names, q)
	if err != nil {
		return access{}, err
	}
	a := access{residual: preds, orderCol: orderCol}
	nkeys := v.KeyLen()

	// The pinned prefix: key columns 0..fixed-1 each equal a literal.
	pinned := make(value.Tuple, 0, nkeys)
	for len(pinned) < nkeys {
		k, ok := pinnedTo(preds, len(pinned))
		if !ok {
			break
		}
		pinned = append(pinned, k)
	}
	fixed := len(pinned)
	if fixed == nkeys {
		a.point, a.ordered = pinned, true
		return a, nil
	}

	prefix := keyenc.AppendTuple(nil, pinned)
	lo, hi := bound{key: prefix, vals: pinned}, bound{}
	if fixed > 0 {
		hi = after(lo)
	}
	for _, p := range preds {
		atoms := p.Atoms()
		if len(atoms) != 1 || atoms[0].Right.IsCol || atoms[0].Left != fixed {
			continue
		}
		k := atoms[0].Right.Const
		at := bound{
			key:  keyenc.AppendValue(prefix[:len(prefix):len(prefix)], k),
			vals: append(pinned[:fixed:fixed], k),
		}
		switch atoms[0].Op {
		case pred.Gt:
			at = after(at)
			fallthrough
		case pred.Ge:
			if bytes.Compare(at.key, lo.key) > 0 {
				lo = at
			}
		case pred.Lt:
			hi = lower(hi, at)
		case pred.Le:
			hi = lower(hi, after(at))
		}
	}
	a.win = view.Window{Lo: lo.key, Hi: hi.key}
	a.lo, a.hi = lo, hi
	if len(preds) > 0 {
		a.win.Keep = func(t value.Tuple) bool { return matchesAll(preds, t) }
	}
	// The walk runs in ORDER BY's direction even when a sort follows: the
	// sort is stable, so rows that tie on the column stay in group-key order,
	// ascending or descending with it.
	a.win.Desc = q.OrderBy != nil && q.OrderDesc
	if a.ordered = orderCol <= fixed; a.ordered {
		a.win.Limit = max(q.Limit, 0) // a window's zero Limit is no limit; LIMIT 0 reads nothing
	}
	return a, nil
}

// pinnedTo returns the literal a single "=" atom of the conjunction pins
// column col to.
func pinnedTo(preds []pred.Predicate, col int) (value.Value, bool) {
	for _, p := range preds {
		if c, k, ok := p.EqualityConstant(); ok && c == col {
			return k, true
		}
	}
	return value.Null(), false
}

// bound is one end of a key window: the encoded key, and the key prefix it
// was made from — the prefix's own encoding or, with past set, the first key
// after every key that starts with it. An empty key leaves the end open.
type bound struct {
	key  []byte
	vals value.Tuple
	past bool
}

// after is the bound just past every key that starts with b's.
func after(b bound) bound {
	// A key prefix starts with a kind tag below 0xFF, so it has a successor.
	succ, _ := keyenc.PrefixSuccessor(nil, b.key)
	return bound{key: succ, vals: b.vals, past: true}
}

// text spells the bound for EXPLAIN: ('east', 5), after('east'), or open
// for an open end.
func (b bound) text(open string) string {
	switch {
	case len(b.key) == 0:
		return open
	case b.past:
		return "after" + tupleText(b.vals)
	}
	return tupleText(b.vals)
}

// lower returns the lower of two upper bounds.
func lower(a, b bound) bound {
	if a.key == nil || bytes.Compare(b.key, a.key) < 0 {
		return b
	}
	return a
}

// tupleText spells a key prefix: ('east', 5).
func tupleText(t value.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = literalText(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// resolveOrder maps ORDER BY onto a column index (-1 without ORDER BY),
// erroring on unknown columns even when results would be empty.
func resolveOrder(names []string, q *sqlparse.Query) (int, error) {
	if q.OrderBy == nil {
		return -1, nil
	}
	for i, n := range names {
		if n == q.OrderBy.Name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("chronicledb: unknown ORDER BY column %q", q.OrderBy.Name)
}

func filterRows(names []string, rows []Row, q *sqlparse.Query) (*Result, error) {
	preds, err := sqlparse.LowerWhere(names, q.Where)
	if err != nil {
		return nil, err
	}
	orderCol, err := resolveOrder(names, q)
	if err != nil {
		return nil, err
	}
	out := rows[:0:0]
	for _, r := range rows {
		if orderCol < 0 && q.Limit >= 0 && len(out) >= q.Limit {
			break // without ORDER BY, LIMIT can stop the scan early
		}
		if matchesAll(preds, r) {
			out = append(out, r)
		}
	}
	if orderCol >= 0 {
		out = sortRows(out, orderCol, q.OrderDesc, q.Limit)
	}
	return &Result{Columns: names, Rows: out}, nil
}

// sortRows orders rows by one column, stably, and cuts them at limit (-1 =
// no limit).
func sortRows(rows []Row, col int, desc bool, limit int) []Row {
	sort.SliceStable(rows, func(i, j int) bool {
		c := value.Compare(rows[i][col], rows[j][col])
		if desc {
			return c > 0
		}
		return c < 0
	})
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

func matchesAll(preds []pred.Predicate, r Row) bool {
	for _, p := range preds {
		if !p.Eval(r) {
			return false
		}
	}
	return true
}

// explainQuery describes how a SELECT over a view would be read: the access
// path planAccess chose, what it filters with, the store it reads and, for a
// paged store, how many of its blocks the read plans to touch.
func (db *DB) explainQuery(q *sqlparse.Query) (*Result, error) {
	v, ok, err := db.resolve(q.From, q.Interval)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("chronicledb: EXPLAIN SELECT reads views; %q is not one", q.From)
	}
	a, err := planAccess(v, q)
	if err != nil {
		return nil, err
	}
	planned, total := v.PlannedBlocks(a.win)
	path := "full"
	if a.point != nil {
		path = "point" + tupleText(a.point)
		planned = min(total, 1)
	} else {
		if len(a.win.Lo) > 0 || len(a.win.Hi) > 0 {
			path = fmt.Sprintf("range[%s, %s)", a.lo.text("-∞"), a.hi.text("+∞"))
		}
		if a.win.Desc {
			path += " desc"
		} else {
			path += " asc"
		}
		if a.ordered && q.Limit >= 0 {
			path += fmt.Sprintf(" limit %d", q.Limit)
		}
	}
	residual := make([]string, len(a.residual))
	for i, p := range a.residual {
		residual[i] = p.String(v.Schema())
		if len(p.Atoms()) > 1 {
			residual[i] = "(" + residual[i] + ")"
		}
	}
	if len(residual) == 0 {
		residual = []string{"none"}
	}
	res := &Result{
		Columns: []string{"property", "value"},
		Rows: []Row{
			{value.Str("access"), value.Str(path)},
			{value.Str("residual"), value.Str(strings.Join(residual, " AND "))},
		},
	}
	if !a.ordered {
		order := fmt.Sprintf("by %s", q.OrderBy.Name)
		if q.OrderDesc {
			order += " desc"
		}
		if q.Limit >= 0 {
			order += fmt.Sprintf(" limit %d", q.Limit)
		}
		res.Rows = append(res.Rows, Row{value.Str("sort"), value.Str(order)})
	}
	res.Rows = append(res.Rows, Row{value.Str("store"), value.Str(storeOf(v))})
	if v.Paged() {
		res.Rows = append(res.Rows, Row{value.Str("blocks"), value.Str(fmt.Sprintf("%d / %d", planned, total))})
	}
	return res, nil
}

// tuplesOf makes an APPEND statement's rows the engine's tuples. A string
// literal is a substring of its statement, so each string cell is copied: a
// retained chronicle row, or a MIN, MAX, FIRST or LAST holding the string,
// would otherwise keep the whole statement alive.
func tuplesOf(rows [][]value.Value) []value.Tuple {
	tuples := make([]value.Tuple, len(rows))
	for i, r := range rows {
		for j, v := range r {
			if v.Kind() == value.KindString {
				r[j] = value.Str(strings.Clone(v.AsString()))
			}
		}
		tuples[i] = value.Tuple(r)
	}
	return tuples
}

// storeOf names where a view's entries live: "paged" when blocks of them
// come and go against the block cache, "resident" when all stay in memory.
// Either way the keys stay in the view's directory.
func storeOf(v *view.View) string {
	if v.Paged() {
		return "paged"
	}
	return "resident"
}

// explain describes a persistent or periodic view; a family's description
// ends with one interval row per live instance, in start order: the starts
// SELECT … FOR INTERVAL names.
func (db *DB) explain(name string) (*Result, error) {
	if v, ok := db.eng.View(name); ok {
		info, d := v.Info(), v.Dir()
		res := &Result{
			Columns: []string{"property", "value"},
			Rows: []Row{
				{value.Str("expression"), value.Str(v.Def().Expr.String())},
				{value.Str("summarize"), value.Str(v.Def().Mode.String())},
				{value.Str("language"), value.Str(info.Lang.String())},
				{value.Str("maintenance_class"), value.Str(info.IMClass().String())},
				{value.Str("unions_u"), value.Int(int64(info.Unions))},
				{value.Str("joins_j"), value.Int(int64(info.Joins))},
				{value.Str("rows"), value.Int(int64(v.Len()))},
				{value.Str("store"), value.Str(storeOf(v))},
				{value.Str("groups"), value.Str(groupsOf(name, v.TableViews()))},
			},
		}
		return db.explainShared(res, name, d), nil
	}
	if pv, ok := db.eng.PeriodicView(name); ok {
		info := db.familyInfo(name)
		res := &Result{
			Columns: []string{"property", "value"},
			Rows: []Row{
				{value.Str("calendar"), value.Str(pv.Calendar().String())},
				{value.Str("live_instances"), value.Int(int64(info.Live))},
				{value.Str("created"), value.Int(info.Created)},
				{value.Str("expired"), value.Int(info.Expired)},
				{value.Str("groups"), value.Str(groupsOf(name, info.Tables))},
			},
		}
		res = db.explainShared(res, name, pv.Dir())
		for _, inst := range pv.Instances() {
			res.Rows = append(res.Rows, Row{value.Str("interval"), value.Str(inst.Interval.String())})
		}
		return res, nil
	}
	return nil, fmt.Errorf("chronicledb: unknown view %q", name)
}

// familyInfo reads a periodic family's counts and table sharing on its
// home shard, under the lock its maintenance holds.
func (db *DB) familyInfo(name string) engine.FamilyInfo {
	var info engine.FamilyInfo
	if home, ok := db.eng.Home(name); ok {
		info, _ = home.FamilyInfo(name)
	}
	return info
}

// groupsOf says whose groups the rows of a view, or of a family's
// instances, are read from: its own table's, or one it shares with the
// views or families that fold the same delta by the same key (view.Join).
// sharers names them, name among them.
func groupsOf(name string, sharers []string) string {
	var others []string
	for _, n := range sharers {
		if n != name {
			others = append(others, n)
		}
	}
	if len(others) == 0 {
		return "own table"
	}
	return "shared with " + strings.Join(others, ", ")
}

// explainShared ends the EXPLAIN of a view or periodic family with its key
// directory (the keys and key order of every member whose key traces to the
// same columns of one chronicle, whatever its σ, held once) and its
// shared-delta plan nodes, post-order, root last, with their consumer
// counts: two views listing the same node id share that subexpression's
// delta.
func (db *DB) explainShared(res *Result, name string, d *view.Dir) *Result {
	dir := "one per instance" // a family that expires its instances
	if d != nil {
		dir = fmt.Sprintf("%s: %d views, %d keys", d.Name(), d.Members(), d.Len())
	}
	res.Rows = append(res.Rows, Row{value.Str("directory"), value.Str(dir)})
	if home, ok := db.eng.Home(name); ok {
		nodes, _ := home.ViewSharedPlan(name)
		for _, n := range nodes {
			res.Rows = append(res.Rows, Row{
				value.Str(fmt.Sprintf("plan_node_%d", n.ID)),
				value.Str(fmt.Sprintf("consumers=%d %s", n.Consumers, n.Expr)),
			})
		}
	}
	return res
}

// show lists catalog objects or engine statistics.
func (db *DB) show(what string) (*Result, error) {
	switch what {
	case "VIEWS":
		// directory and dir_views name a view's key directory and how many
		// members share it — the views and kept families whose keys trace to
		// the same columns of one chronicle, whatever their σ; table_views
		// counts the views sharing its groups.
		res := &Result{Columns: []string{"name", "language", "class", "rows", "store", "directory", "dir_views", "table_views"}}
		add := func(name string, info algebra.Info, rows int, store string, d *view.Dir, tableViews int) {
			dir, members := "", 0 // a family that expires its instances: one each
			if d != nil {
				dir, members = d.Name(), d.Members()
			}
			res.Rows = append(res.Rows, Row{
				value.Str(name), value.Str(info.Lang.String()), value.Str(info.IMClass().String()),
				value.Int(int64(rows)), value.Str(store), value.Str(dir), value.Int(int64(members)),
				value.Int(int64(tableViews)),
			})
		}
		// A view named by the listing may be dropped before it is read:
		// it is left out, as it would be from a listing a moment later.
		for _, n := range db.eng.Names(shard.Views) {
			v, ok := db.eng.View(n)
			if !ok {
				continue
			}
			add(n, v.Info(), v.Len(), storeOf(v), v.Dir(), len(v.TableViews()))
		}
		// A family's rows are its live instances, which are resident; its
		// table_views counts the families of its cohort whose instances
		// share their tables with its own.
		for _, n := range db.eng.Names(shard.PeriodicViews) {
			pv, ok := db.eng.PeriodicView(n)
			if !ok {
				continue
			}
			info := db.familyInfo(n)
			add(n+" (periodic)", algebra.Analyze(pv.Def().Expr), info.Live, "resident", pv.Dir(), len(info.Tables))
		}
		return res, nil
	case "CHRONICLES":
		res := &Result{Columns: []string{"name", "group", "retained", "total", "last_sn"}}
		for _, n := range db.eng.Names(shard.Chronicles) {
			c, _ := db.eng.Chronicle(n)
			res.Rows = append(res.Rows, Row{
				value.Str(n), value.Str(c.Group().Name()),
				value.Int(int64(c.Len())), value.Int(c.Total()), value.Int(c.LastSN()),
			})
		}
		return res, nil
	case "RELATIONS":
		res := &Result{Columns: []string{"name", "rows", "updates"}}
		for _, n := range db.eng.Names(shard.Relations) {
			r, _ := db.eng.Relation(n)
			res.Rows = append(res.Rows, Row{value.Str(n), value.Int(int64(r.Len())), value.Int(r.Updates())})
		}
		return res, nil
	case "GROUPS":
		res := &Result{Columns: []string{"name", "chronicles", "last_sn"}}
		for _, n := range db.eng.Names(shard.Groups) {
			g, _ := db.eng.Group(n)
			res.Rows = append(res.Rows, Row{
				value.Str(n), value.Int(int64(len(g.Members()))), value.Int(g.LastSN()),
			})
		}
		return res, nil
	case "STATS":
		res := &Result{Columns: []string{"stat", "value"}}
		for _, m := range db.Metrics() {
			res.Rows = append(res.Rows, Row{value.Str(m.Name), m.sqlValue()})
		}
		return res, nil
	default:
		return nil, fmt.Errorf("chronicledb: cannot SHOW %s", what)
	}
}

func schemaOf(cols []sqlparse.ColumnDef) (*value.Schema, error) {
	vcols := make([]value.Column, len(cols))
	seen := map[string]bool{}
	for i, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("chronicledb: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		vcols[i] = value.Column{Name: c.Name, Kind: c.Kind}
	}
	return value.NewSchema(vcols...), nil
}

// literalText spells a value for EXPLAIN, a string quoted as SQL writes it.
func literalText(v value.Value) string {
	if v.Kind() == value.KindString {
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	}
	return v.String()
}
