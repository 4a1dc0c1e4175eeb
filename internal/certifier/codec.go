package certifier

// Binary wire codecs for the hot certification path. Request/Response
// and PullRequest/PullResponse dominate replica↔certifier traffic —
// every update commit and every staleness-bound pull — so they get a
// hand-written fixed-layout encoding (transport.BinaryMessage) instead
// of gob's per-message type descriptor. Rare control messages
// (prepare/resolve/fill) stay on the gob fallback.
//
// All integers are big-endian fixed width. Writesets ride as opaque
// length-prefixed byte strings: they are already core.Writeset's
// compact binary encoding.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"tashkent/internal/transport"
)

// Interface checks: these four must stay on the fast path.
var (
	_ transport.BinaryMessage = (*Request)(nil)
	_ transport.BinaryMessage = (*Response)(nil)
	_ transport.BinaryMessage = (*PullRequest)(nil)
	_ transport.BinaryMessage = (*PullResponse)(nil)
)

var errShortMessage = errors.New("certifier: short binary message")

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// takeBytes slices a length-prefixed byte string out of data without
// copying (the decoded message may retain it; transport frames are
// per-message allocations, so aliasing is safe).
func takeBytes(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, errShortMessage
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if len(data) < n {
		return nil, nil, errShortMessage
	}
	return data[:n], data[n:], nil
}

// Request: u32 origin | u64 start | u64 replicaVersion | i64 deadline
// | u32 wsLen | ws
func (r *Request) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Origin))
	buf = binary.BigEndian.AppendUint64(buf, r.StartVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Deadline))
	return appendBytes(buf, r.WSBytes)
}

func (r *Request) DecodeBinary(data []byte) error {
	if len(data) < 28 {
		return errShortMessage
	}
	r.Origin = int(binary.BigEndian.Uint32(data))
	r.StartVersion = binary.BigEndian.Uint64(data[4:])
	r.ReplicaVersion = binary.BigEndian.Uint64(data[12:])
	r.Deadline = int64(binary.BigEndian.Uint64(data[20:]))
	ws, rest, err := takeBytes(data[28:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after Request", len(rest))
	}
	r.WSBytes = ws
	return nil
}

// appendRemotes: u32 count | per entry u64 version | u32 dataLen |
// data
func appendRemotes(buf []byte, remote []RemoteWS) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(remote)))
	for i := range remote {
		buf = binary.BigEndian.AppendUint64(buf, remote[i].Version)
		buf = appendBytes(buf, remote[i].Data)
	}
	return buf
}

func takeRemotes(data []byte) ([]RemoteWS, []byte, error) {
	if len(data) < 4 {
		return nil, nil, errShortMessage
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n == 0 {
		return nil, data, nil
	}
	if n > len(data)/12 { // each entry is at least 12 bytes; cheap sanity bound
		return nil, nil, fmt.Errorf("certifier: remote count %d exceeds payload", n)
	}
	out := make([]RemoteWS, n)
	for i := 0; i < n; i++ {
		if len(data) < 8 {
			return nil, nil, errShortMessage
		}
		out[i].Version = binary.BigEndian.Uint64(data)
		var err error
		out[i].Data, data, err = takeBytes(data[8:])
		if err != nil {
			return nil, nil, err
		}
	}
	return out, data, nil
}

// Response: u8 flags(committed) | u64 commitVersion | u64
// systemVersion | remotes
func (r *Response) AppendBinary(buf []byte) []byte {
	var flags byte
	if r.Committed {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, r.CommitVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *Response) DecodeBinary(data []byte) error {
	if len(data) < 17 {
		return errShortMessage
	}
	r.Committed = data[0]&1 != 0
	r.CommitVersion = binary.BigEndian.Uint64(data[1:])
	r.SystemVersion = binary.BigEndian.Uint64(data[9:])
	remote, rest, err := takeRemotes(data[17:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after Response", len(rest))
	}
	r.Remote = remote
	return nil
}

// PullRequest: u32 origin | u64 replicaVersion | u8 flags(includeOwn)
func (r *PullRequest) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Origin))
	buf = binary.BigEndian.AppendUint64(buf, r.ReplicaVersion)
	var flags byte
	if r.IncludeOwn {
		flags |= 1
	}
	return append(buf, flags)
}

func (r *PullRequest) DecodeBinary(data []byte) error {
	if len(data) != 13 {
		return errShortMessage
	}
	r.Origin = int(binary.BigEndian.Uint32(data))
	r.ReplicaVersion = binary.BigEndian.Uint64(data[4:])
	r.IncludeOwn = data[12]&1 != 0
	return nil
}

// PullResponse: u8 flags(busy) | u64 systemVersion | remotes
func (r *PullResponse) AppendBinary(buf []byte) []byte {
	var flags byte
	if r.Busy {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, r.SystemVersion)
	return appendRemotes(buf, r.Remote)
}

func (r *PullResponse) DecodeBinary(data []byte) error {
	if len(data) < 9 {
		return errShortMessage
	}
	r.Busy = data[0]&1 != 0
	r.SystemVersion = binary.BigEndian.Uint64(data[1:])
	remote, rest, err := takeRemotes(data[9:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("certifier: %d trailing bytes after PullResponse", len(rest))
	}
	r.Remote = remote
	return nil
}
