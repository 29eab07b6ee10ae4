package calendar

import (
	"encoding/binary"
	"fmt"

	"chronicledb/internal/view"
)

// Periodic-view checkpoints: each live instance's interval and view state,
// plus the counters that drive expiration. Without this, truncating the WAL
// at a checkpoint would silently reset every open billing period.
//
// An instance's image holds the family's own columns (view.Checkpoint), so a
// family's image is the same bytes whether or not its instances share
// tables with its cohort's. A restore gives every instance a table of its
// own; the cohort shares tables again from the next interval born.

const pvMagic = "CDBP"

// Checkpoint serializes the family's live instances.
func (p *PeriodicView) Checkpoint() []byte {
	var b []byte
	b = append(b, pvMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.co.maxSeen))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.created))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.expired))
	infos := p.Instances()
	b = binary.AppendUvarint(b, uint64(len(infos)))
	for _, inst := range infos {
		b = binary.LittleEndian.AppendUint64(b, uint64(inst.Interval.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(inst.Interval.End))
		snap := inst.View.Checkpoint()
		b = binary.AppendUvarint(b, uint64(len(snap)))
		b = append(b, snap...)
	}
	return b
}

// RestoreCheckpoint replaces the family's instances with a checkpoint
// produced by a family with the same definition, each with a table of its
// own.
func (p *PeriodicView) RestoreCheckpoint(data []byte) error {
	if len(data) < 4+24 || string(data[:4]) != pvMagic {
		return fmt.Errorf("calendar: %s: bad periodic checkpoint", p.name)
	}
	off := 4
	maxSeen := int64(binary.LittleEndian.Uint64(data[off:]))
	created := int64(binary.LittleEndian.Uint64(data[off+8:]))
	expired := int64(binary.LittleEndian.Uint64(data[off+16:]))
	off += 24
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return fmt.Errorf("calendar: %s: bad instance count", p.name)
	}
	off += n

	instances := make(map[Interval]*view.View, count)
	for i := uint64(0); i < count; i++ {
		if len(data)-off < 16 {
			return fmt.Errorf("calendar: %s: truncated instance %d", p.name, i)
		}
		iv := Interval{
			Start: int64(binary.LittleEndian.Uint64(data[off:])),
			End:   int64(binary.LittleEndian.Uint64(data[off+8:])),
		}
		off += 16
		snapLen, n := binary.Uvarint(data[off:])
		if n <= 0 || uint64(len(data)-off-n) < snapLen {
			return fmt.Errorf("calendar: %s: truncated instance snapshot %d", p.name, i)
		}
		off += n
		v, err := view.NewIn(p.instanceDef(iv), p.dir)
		if err != nil {
			return fmt.Errorf("calendar: %s: %w", p.name, err)
		}
		if err := v.RestoreCheckpoint(data[off : off+int(snapLen)]); err != nil {
			return fmt.Errorf("calendar: %s: instance %s: %w", p.name, iv, err)
		}
		off += int(snapLen)
		instances[iv] = v
	}
	if off != len(data) {
		return fmt.Errorf("calendar: %s: %d trailing checkpoint bytes", p.name, len(data)-off)
	}
	for _, v := range p.instances {
		v.Leave()
	}
	p.instances = instances
	p.publishLive()
	// The cohort's members restore images of one high-water chronon, or an
	// earlier image before a later one of a chain.
	p.co.maxSeen = max(p.co.maxSeen, maxSeen)
	p.created = created
	p.expired = expired
	return nil
}
