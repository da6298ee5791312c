package types

import (
	"fmt"
	"time"
)

// Date values are int32 days since the Unix epoch; Timestamp values are
// int64 microseconds since the Unix epoch (UTC). These helpers convert
// between those physical representations, time.Time, and SQL literals.

const (
	// MicrosPerSecond is the timestamp resolution ratio.
	MicrosPerSecond = int64(1_000_000)
	// SecondsPerDay converts between Date and Timestamp granularity.
	SecondsPerDay = int64(86_400)
)

// DateFromTime truncates t (in UTC) to a day count.
func DateFromTime(t time.Time) int32 {
	return int32(t.UTC().Unix() / SecondsPerDay)
}

// DateToTime converts a day count back to midnight UTC.
func DateToTime(days int32) time.Time {
	return time.Unix(int64(days)*SecondsPerDay, 0).UTC()
}

// ParseDate parses a "YYYY-MM-DD" literal.
func ParseDate(s string) (int32, error) {
	t, err := time.ParseInLocation("2006-01-02", s, time.UTC)
	if err != nil {
		return 0, fmt.Errorf("types: invalid DATE literal %q: %w", s, err)
	}
	return DateFromTime(t), nil
}

// FormatDate renders a day count as "YYYY-MM-DD".
func FormatDate(days int32) string {
	var buf [32]byte
	return string(AppendDate(buf[:0], days))
}

// AppendDate appends FormatDate's text to b.
func AppendDate(b []byte, days int32) []byte {
	return DateToTime(days).AppendFormat(b, "2006-01-02")
}

// TimestampFromTime converts t to microseconds since the epoch.
func TimestampFromTime(t time.Time) int64 {
	return t.UnixMicro()
}

// TimestampToTime converts microseconds since the epoch to a UTC time.Time.
func TimestampToTime(micros int64) time.Time {
	return time.UnixMicro(micros).UTC()
}

// ParseTimestamp parses "YYYY-MM-DD HH:MM:SS[.ffffff]" or a bare date.
func ParseTimestamp(s string) (int64, error) {
	for _, layout := range []string{
		"2006-01-02 15:04:05.999999",
		"2006-01-02T15:04:05.999999",
		"2006-01-02 15:04:05",
		"2006-01-02",
	} {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return TimestampFromTime(t), nil
		}
	}
	return 0, fmt.Errorf("types: invalid TIMESTAMP literal %q", s)
}

// FormatTimestamp renders microseconds since the epoch in SQL form.
func FormatTimestamp(micros int64) string {
	var buf [64]byte
	return string(AppendTimestamp(buf[:0], micros))
}

// AppendTimestamp appends FormatTimestamp's text to b.
func AppendTimestamp(b []byte, micros int64) []byte {
	t := TimestampToTime(micros)
	if micros%MicrosPerSecond == 0 {
		return t.AppendFormat(b, "2006-01-02 15:04:05")
	}
	return t.AppendFormat(b, "2006-01-02 15:04:05.999999")
}

// DateYear extracts the calendar year of a day count.
func DateYear(days int32) int32 {
	return int32(DateToTime(days).Year())
}

// DateMonth extracts the calendar month (1-12) of a day count.
func DateMonth(days int32) int32 {
	return int32(DateToTime(days).Month())
}

// DateDay extracts the day of month of a day count.
func DateDay(days int32) int32 {
	return int32(DateToTime(days).Day())
}

// AddMonths shifts a day count by n calendar months (Spark semantics:
// day-of-month clamped to the target month's length by time.AddDate
// normalization).
func AddMonths(days int32, n int32) int32 {
	return DateFromTime(DateToTime(days).AddDate(0, int(n), 0))
}
