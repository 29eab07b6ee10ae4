package value

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a chronicle, relation, or view.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns. Schemas are immutable
// after construction.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from the given columns. Column names must be
// unique; NewSchema panics otherwise, since schemas are always constructed
// from validated DDL or from other schemas.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range s.cols {
		if c.Name == "" {
			panic("value: empty column name")
		}
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("value: duplicate column %q", c.Name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustIndex is Index for callers that have already validated the name.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("value: unknown column %q", name))
	}
	return i
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.Name
	}
	return names
}

// Equal reports whether two schemas have identical column names and kinds
// in the same order. The paper's union and difference operators require
// operands "of the same type"; this is that check.
func (s *Schema) Equal(o *Schema) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// Project returns a new schema containing the columns at the given indexes,
// in the given order.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.cols[j]
	}
	return NewSchema(cols...)
}

// Concat returns a schema with o's columns appended to s's. Name collisions
// on o's side are disambiguated with the given prefix (e.g. "r."); if the
// prefixed name still clashes (the same relation joined twice), a numeric
// suffix keeps names unique.
func (s *Schema) Concat(o *Schema, prefix string) *Schema {
	cols := s.Columns()
	taken := make(map[string]bool, len(cols)+o.Len())
	for _, c := range cols {
		taken[c.Name] = true
	}
	for _, c := range o.cols {
		name := c.Name
		if taken[name] {
			name = prefix + name
		}
		for i := 2; taken[name]; i++ {
			name = fmt.Sprintf("%s%s#%d", prefix, c.Name, i)
		}
		taken[name] = true
		cols = append(cols, Column{Name: name, Kind: c.Kind})
	}
	return NewSchema(cols...)
}

// Validate checks that the tuple matches the schema arity and kinds.
// Null values are allowed in any column.
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.cols) {
		return fmt.Errorf("value: tuple arity %d does not match schema arity %d", len(t), len(s.cols))
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		if v.Kind() != s.cols[i].Kind {
			return fmt.Errorf("value: column %q expects %s, got %s", s.cols[i].Name, s.cols[i].Kind, v.Kind())
		}
	}
	return nil
}

// Coerce returns the tuple with standard numeric widening applied: an
// integer value in a float column becomes a float. Any other kind mismatch
// is reported. The input tuple is not modified; when no coercion is needed
// the original slice is returned unchanged.
func (s *Schema) Coerce(t Tuple) (Tuple, error) {
	if len(t) != len(s.cols) {
		return nil, fmt.Errorf("value: tuple arity %d does not match schema arity %d", len(t), len(s.cols))
	}
	out := t
	for i, v := range t {
		if v.IsNull() || v.Kind() == s.cols[i].Kind {
			continue
		}
		if v.Kind() == KindInt && s.cols[i].Kind == KindFloat {
			if &out[0] == &t[0] {
				out = t.Clone()
			}
			out[i] = Float(float64(v.AsInt()))
			continue
		}
		return nil, fmt.Errorf("value: column %q expects %s, got %s", s.cols[i].Name, s.cols[i].Kind, v.Kind())
	}
	return out, nil
}

// String renders the schema as "(name kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Fingerprint returns a stable hash of the schema layout, used by the WAL
// to detect schema drift between a checkpoint and the log.
func (s *Schema) Fingerprint() uint64 {
	h := hashSeed
	for _, c := range s.cols {
		h = fnvUint64(h, fnvString(c.Name))
		h = fnvByte(h, byte(c.Kind))
	}
	return h
}
