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
	"chronicledb/internal/sqlparse"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
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
		if plan.Periodic != nil {
			_, err = db.eng.CreatePeriodicView(s.Name, plan.Def, plan.Periodic.Calendar,
				plan.Periodic.ExpireAfter)
			if err != nil {
				return nil, err
			}
			return db.ddlDone(s, mode, "periodic view %s created (%s, %s)",
				s.Name, plan.Info.Lang, plan.Info.IMClass())
		}
		if _, err := db.eng.CreateView(plan.Def, plan.Filter, plan.FilterChronicle); err != nil {
			return nil, err
		}
		return db.ddlDone(s, mode, "view %s created (%s, %s)", s.Name, plan.Info.Lang, plan.Info.IMClass())

	case *sqlparse.Append:
		total := 0
		if len(s.Parts) == 1 {
			part := s.Parts[0]
			tuples := make([]value.Tuple, len(part.Rows))
			for i, r := range part.Rows {
				tuples[i] = value.Tuple(r)
			}
			sn, err := db.eng.Append(part.Chronicle, tuples)
			if err != nil {
				return nil, err
			}
			if mode == execLive {
				db.ackWait()
			}
			return &Result{Message: fmt.Sprintf("appended %d tuple(s) at sequence number %d", len(tuples), sn)}, nil
		}
		parts := make([]engine.MutationPart, len(s.Parts))
		for i, p := range s.Parts {
			tuples := make([]value.Tuple, len(p.Rows))
			for j, r := range p.Rows {
				tuples[j] = value.Tuple(r)
			}
			parts[i] = engine.MutationPart{Chronicle: p.Chronicle, Tuples: tuples}
			total += len(tuples)
		}
		sn, err := db.eng.AppendBatch(parts)
		if err != nil {
			return nil, err
		}
		if mode == execLive {
			db.ackWait()
		}
		return &Result{Message: fmt.Sprintf("appended %d tuple(s) across %d chronicles at sequence number %d",
			total, len(parts), sn)}, nil

	case *sqlparse.DropView:
		if err := db.eng.DropView(s.Name); err != nil {
			return nil, err
		}
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

// ddlDone persists a DDL statement to the catalog and acknowledges it.
func (db *DB) ddlDone(s sqlparse.Statement, mode execMode, format string, args ...any) (*Result, error) {
	if mode == execRecovery {
		// The statement came from the catalog; count it so ddlSeq ends
		// equal to the catalog length without rewriting the file it was
		// read from.
		db.ddlSeq.Add(1)
	} else if err := db.commitDDL(renderDDL(s)); err != nil {
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

// query answers SELECT * FROM <view|relation|chronicle>.
func (db *DB) query(q *sqlparse.Query) (*Result, error) {
	if v, ok := db.eng.View(q.From); ok {
		return db.queryView(v, q)
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
		home, _ := db.eng.Home(q.From) // chronicles are never dropped, so it resolves
		crows, err := home.ChronicleRows(q.From)
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

// queryView answers a SELECT over a persistent view from the view's index:
// planAccess turns the WHERE clause into a probe of one group key or a walk
// of one key window, and the rows come from ViewLookup or the one ViewScan
// entry. Only an ORDER BY the walk cannot deliver — a non-key column, or a
// key column behind one the WHERE leaves open — sorts what the window
// yields before LIMIT applies.
func (db *DB) queryView(v *view.View, q *sqlparse.Query) (*Result, error) {
	a, err := planAccess(v, q)
	if err != nil {
		return nil, err
	}
	var rows []Row
	if a.point != nil {
		row, ok, err := db.eng.ViewLookup(q.From, a.point)
		if err != nil {
			return nil, err
		}
		if ok && matchesAll(a.residual, row) {
			rows = []Row{row}
		}
	} else if rows, err = db.collect(q.From, a.win); err != nil {
		return nil, err
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
		a.win.Limit = q.Limit
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
		if matchesAll(preds, r) {
			out = append(out, r)
			if orderCol < 0 && q.Limit > 0 && len(out) >= q.Limit {
				break // without ORDER BY, LIMIT can stop the scan early
			}
		}
	}
	if orderCol >= 0 {
		out = sortRows(out, orderCol, q.OrderDesc, q.Limit)
	}
	return &Result{Columns: names, Rows: out}, nil
}

// sortRows orders rows by one column, stably, and cuts them at limit (0 =
// no limit).
func sortRows(rows []Row, col int, desc bool, limit int) []Row {
	sort.SliceStable(rows, func(i, j int) bool {
		c := value.Compare(rows[i][col], rows[j][col])
		if desc {
			return c > 0
		}
		return c < 0
	})
	if limit > 0 && len(rows) > limit {
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
	v, ok := db.eng.View(q.From)
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
		if a.win.Limit > 0 {
			path += fmt.Sprintf(" limit %d", a.win.Limit)
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
		if q.Limit > 0 {
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

// storeOf names where a view's entries live: "paged" when blocks of them
// come and go against the block cache, "resident" when all stay in memory.
// Either way the keys stay in the view's directory.
func storeOf(v *view.View) string {
	if v.Paged() {
		return "paged"
	}
	return "resident"
}

// explain describes a persistent or periodic view.
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
			},
		}
		return db.explainShared(res, name, d), nil
	}
	if pv, ok := db.eng.PeriodicView(name); ok {
		res := &Result{
			Columns: []string{"property", "value"},
			Rows: []Row{
				{value.Str("calendar"), value.Str(pv.Calendar().String())},
				{value.Str("live_instances"), value.Int(int64(pv.Live()))},
				{value.Str("created"), value.Int(pv.Created())},
				{value.Str("expired"), value.Int(pv.Expired())},
			},
		}
		return db.explainShared(res, name, pv.Dir()), nil
	}
	return nil, fmt.Errorf("chronicledb: unknown view %q", name)
}

// explainShared ends the EXPLAIN of a view or periodic family with its key
// directory (the keys and key order of every member folding the same
// expression by the same columns, held once) and its shared-delta plan
// nodes, post-order, root last, with their consumer counts: two views
// listing the same node id share that subexpression's delta.
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
		// views share it.
		res := &Result{Columns: []string{"name", "language", "class", "rows", "store", "directory", "dir_views"}}
		add := func(name string, info algebra.Info, rows int, store string, d *view.Dir) {
			dir, members := "", 0 // a family that expires its instances: one each
			if d != nil {
				dir, members = d.Name(), d.Members()
			}
			res.Rows = append(res.Rows, Row{
				value.Str(name), value.Str(info.Lang.String()), value.Str(info.IMClass().String()),
				value.Int(int64(rows)), value.Str(store), value.Str(dir), value.Int(int64(members)),
			})
		}
		for _, n := range db.eng.Names(engine.Views) {
			v, _ := db.eng.View(n)
			add(n, v.Info(), v.Len(), storeOf(v), v.Dir())
		}
		// A family's rows are its live instances, which are resident.
		for _, n := range db.eng.Names(engine.PeriodicViews) {
			pv, _ := db.eng.PeriodicView(n)
			add(n+" (periodic)", algebra.Analyze(pv.Def().Expr), pv.Live(), "resident", pv.Dir())
		}
		return res, nil
	case "CHRONICLES":
		res := &Result{Columns: []string{"name", "group", "retained", "total", "last_sn"}}
		for _, n := range db.eng.Names(engine.Chronicles) {
			c, _ := db.eng.Chronicle(n)
			res.Rows = append(res.Rows, Row{
				value.Str(n), value.Str(c.Group().Name()),
				value.Int(int64(c.Len())), value.Int(c.Total()), value.Int(c.LastSN()),
			})
		}
		return res, nil
	case "RELATIONS":
		res := &Result{Columns: []string{"name", "rows", "updates"}}
		for _, n := range db.eng.Names(engine.Relations) {
			r, _ := db.eng.Relation(n)
			res.Rows = append(res.Rows, Row{value.Str(n), value.Int(int64(r.Len())), value.Int(r.Updates())})
		}
		return res, nil
	case "GROUPS":
		res := &Result{Columns: []string{"name", "chronicles", "last_sn"}}
		for _, n := range db.eng.Names(engine.Groups) {
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

// renderDDL reconstructs statement text for the catalog. Rather than
// re-printing the AST, the executor records the original statements; this
// helper renders the subset of statements that reach it.
func renderDDL(s sqlparse.Statement) string {
	switch s := s.(type) {
	case *sqlparse.CreateGroup:
		return fmt.Sprintf("CREATE GROUP %s", s.Name)
	case *sqlparse.CreateChronicle:
		var b strings.Builder
		fmt.Fprintf(&b, "CREATE CHRONICLE %s (", s.Name)
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", c.Name, strings.ToUpper(c.Kind.String()))
		}
		b.WriteString(")")
		if s.Group != "" {
			fmt.Fprintf(&b, " IN GROUP %s", s.Group)
		}
		if s.Retain != nil {
			switch *s.Retain {
			case -1:
				b.WriteString(" RETAIN ALL")
			case 0:
				b.WriteString(" RETAIN NONE")
			default:
				fmt.Fprintf(&b, " RETAIN %d", *s.Retain)
			}
		}
		if s.Window != nil {
			fmt.Fprintf(&b, " WINDOW %d", *s.Window)
		}
		return b.String()
	case *sqlparse.CreateRelation:
		var b strings.Builder
		fmt.Fprintf(&b, "CREATE RELATION %s (", s.Name)
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", c.Name, strings.ToUpper(c.Kind.String()))
		}
		fmt.Fprintf(&b, ", KEY(%s))", strings.Join(s.Keys, ", "))
		return b.String()
	case *sqlparse.CreateView:
		return renderCreateView(s)
	case *sqlparse.DropView:
		return "DROP VIEW " + s.Name
	default:
		panic(fmt.Sprintf("chronicledb: renderDDL(%T)", s))
	}
}

func renderCreateView(s *sqlparse.CreateView) string {
	var b strings.Builder
	if s.Periodic != nil {
		fmt.Fprintf(&b, "CREATE PERIODIC VIEW %s AS SELECT ", s.Name)
	} else {
		fmt.Fprintf(&b, "CREATE VIEW %s AS SELECT ", s.Name)
	}
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Star {
		b.WriteString("*")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Agg != "" && it.Star:
			fmt.Fprintf(&b, "%s(*)", it.Agg)
		case it.Agg != "":
			fmt.Fprintf(&b, "%s(%s)", it.Agg, refText(it.Col))
		default:
			b.WriteString(refText(it.Col))
		}
		if it.As != "" {
			fmt.Fprintf(&b, " AS %s", it.As)
		}
	}
	fmt.Fprintf(&b, " FROM %s", s.From)
	for _, j := range s.Joins {
		if j.Cross {
			fmt.Fprintf(&b, " CROSS JOIN %s", j.Relation)
			continue
		}
		if j.OnSN {
			fmt.Fprintf(&b, " JOIN %s ON SN", j.Relation)
			continue
		}
		fmt.Fprintf(&b, " JOIN %s ON ", j.Relation)
		for i, c := range j.On {
			if i > 0 {
				b.WriteString(" AND ")
			}
			fmt.Fprintf(&b, "%s %s %s", refText(c.Left), c.Op, refText(*c.RightCol))
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		for gi, group := range s.Where.Conj {
			if gi > 0 {
				b.WriteString(" AND ")
			}
			if len(group) > 1 {
				b.WriteString("(")
			}
			for ci, c := range group {
				if ci > 0 {
					b.WriteString(" OR ")
				}
				b.WriteString(condText(c))
			}
			if len(group) > 1 {
				b.WriteString(")")
			}
		}
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(refText(g))
		}
	}
	if s.Periodic != nil {
		fmt.Fprintf(&b, " EVERY %d", s.Periodic.Period)
		if s.Periodic.Width != 0 && s.Periodic.Width != s.Periodic.Period {
			fmt.Fprintf(&b, " WIDTH %d", s.Periodic.Width)
		}
		if s.Periodic.Offset != 0 {
			fmt.Fprintf(&b, " OFFSET %d", s.Periodic.Offset)
		}
		if s.Periodic.Expire != nil {
			fmt.Fprintf(&b, " EXPIRE %d", *s.Periodic.Expire)
		}
	}
	return b.String()
}

func refText(c sqlparse.ColRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func condText(c sqlparse.Cond) string {
	if c.RightCol != nil {
		return fmt.Sprintf("%s %s %s", refText(c.Left), c.Op, refText(*c.RightCol))
	}
	return fmt.Sprintf("%s %s %s", refText(c.Left), c.Op, literalText(c.Right))
}

// literalText spells a value the way the parser reads it back.
func literalText(v value.Value) string {
	if v.Kind() == value.KindString {
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	}
	return v.String()
}
