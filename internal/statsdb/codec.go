package statsdb

import (
	"encoding"
	"fmt"
	"math"
	"reflect"
)

// The row codec declares a table once, as the `db:"name"` tags of one Go
// struct. Columns follow field order, and the fields of an untagged
// embedded struct are flattened in place. Int kinds map to Int, float64
// to Float, string and encoding.TextMarshaler types to String, and bool
// to Bool. Non-finite floats are stored as 0, since NaN is not storable.

// codecField is one tagged struct field: its column and where it lives.
type codecField struct {
	name  string
	typ   Type
	text  bool // stored through MarshalText / UnmarshalText
	index []int
}

var (
	textMarshaler   = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
	textUnmarshaler = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
)

// codecFields returns the tagged fields of struct type rt in column
// order. A tagged field the codec cannot store is a programming error
// and panics.
func codecFields(rt reflect.Type) []codecField {
	var fs []codecField
	for _, sf := range reflect.VisibleFields(rt) {
		name, ok := sf.Tag.Lookup("db")
		if !ok {
			continue
		}
		f := codecField{name: name, index: sf.Index}
		switch ft := sf.Type; {
		case !sf.IsExported():
			panic(fmt.Sprintf("statsdb: column %q is unexported field %s.%s", name, rt, sf.Name))
		case ft.Implements(textMarshaler) && reflect.PointerTo(ft).Implements(textUnmarshaler):
			f.typ, f.text = String, true
		case ft.Kind() >= reflect.Int && ft.Kind() <= reflect.Int64:
			f.typ = Int
		case ft.Kind() == reflect.Float64:
			f.typ = Float
		case ft.Kind() == reflect.String:
			f.typ = String
		case ft.Kind() == reflect.Bool:
			f.typ = Bool
		default:
			panic(fmt.Sprintf("statsdb: column %q has unsupported type %s", name, ft))
		}
		fs = append(fs, f)
	}
	return fs
}

// SchemaOf returns the schema whose columns are T's `db` tags.
func SchemaOf[T any]() Schema {
	fs := codecFields(reflect.TypeOf((*T)(nil)).Elem())
	s := make(Schema, len(fs))
	for i, f := range fs {
		s[i] = Column{Name: f.name, Type: f.typ}
	}
	return s
}

// EnsureTable creates a table with the given schema and hash indexes
// unless the database already has one by that name.
func EnsureTable(db *DB, name string, schema Schema, indexes ...string) error {
	if db.Table(name) != nil {
		return nil
	}
	t, err := db.CreateTable(name, schema)
	if err != nil {
		return err
	}
	for _, col := range indexes {
		if err := t.CreateIndex(col); err != nil {
			return err
		}
	}
	return nil
}

// codecColumns returns each field's column position, matching by name.
func (t *Table) codecColumns(fs []codecField) ([]int, error) {
	pos := make([]int, len(fs))
	for i, f := range fs {
		ci := t.schema.Index(f.name)
		if ci < 0 {
			return nil, fmt.Errorf("statsdb: table %s has no column %q", t.name, f.name)
		}
		if t.schema[ci].Type != f.typ {
			return nil, fmt.Errorf("statsdb: table %s column %q is %s, row field is %s",
				t.name, f.name, t.schema[ci].Type, f.typ)
		}
		pos[i] = ci
	}
	return pos, nil
}

// InsertRow appends row, a struct or a pointer to one, matching its `db`
// tags to the table's columns by name. Every column needs a field.
func InsertRow(t *Table, row any) error {
	rv := reflect.Indirect(reflect.ValueOf(row))
	fs := codecFields(rv.Type())
	if len(fs) != len(t.schema) {
		return fmt.Errorf("statsdb: table %s has %d columns, %s has %d", t.name, len(t.schema), rv.Type(), len(fs))
	}
	pos, err := t.codecColumns(fs)
	if err != nil {
		return err
	}
	vals := make([]Value, len(fs))
	for i, f := range fs {
		fv := rv.FieldByIndex(f.index)
		switch {
		case f.text:
			text, err := fv.Interface().(encoding.TextMarshaler).MarshalText()
			if err != nil {
				return fmt.Errorf("statsdb: table %s column %q: %w", t.name, f.name, err)
			}
			vals[pos[i]] = StringVal(string(text))
		case f.typ == Int:
			vals[pos[i]] = IntVal(fv.Int())
		case f.typ == Float:
			x := fv.Float()
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			vals[pos[i]] = FloatVal(x)
		case f.typ == String:
			vals[pos[i]] = StringVal(fv.String())
		default:
			vals[pos[i]] = BoolVal(fv.Bool())
		}
	}
	return t.Insert(vals)
}

// ReadRows decodes every row of t into a T, matching T's `db` tags to
// columns by name, so any column order reads correctly. A tagged column
// the table lacks is an error naming it. A nil or empty table reads as a
// nil slice.
func ReadRows[T any](t *Table) ([]T, error) {
	if t == nil {
		return nil, nil
	}
	fs := codecFields(reflect.TypeOf((*T)(nil)).Elem())
	pos, err := t.codecColumns(fs)
	if err != nil || len(t.rows) == 0 {
		return nil, err
	}
	out := make([]T, len(t.rows))
	for r, row := range t.rows {
		rv := reflect.ValueOf(&out[r]).Elem()
		for i, f := range fs {
			fv, v := rv.FieldByIndex(f.index), row[pos[i]]
			switch {
			case f.text:
				if err := fv.Addr().Interface().(encoding.TextUnmarshaler).UnmarshalText([]byte(v.Str())); err != nil {
					return nil, fmt.Errorf("statsdb: table %s column %q: %w", t.name, f.name, err)
				}
			case f.typ == Int:
				fv.SetInt(v.Int())
			case f.typ == Float:
				fv.SetFloat(v.Float())
			case f.typ == String:
				fv.SetString(v.Str())
			default:
				fv.SetBool(v.Bool())
			}
		}
	}
	return out, nil
}
