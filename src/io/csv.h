/// \file csv.h
/// Reader/writer for event files with the paper's schema
/// (id: Int, category: String, time: Long, wkt: String) — the raw input of
/// the example pipeline in §2.3. WKT fields are quoted because they contain
/// commas.
#ifndef STARK_IO_CSV_H_
#define STARK_IO_CSV_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/stobject.h"

namespace stark {

/// One raw input row, before spatial parsing.
struct EventRecord {
  int64_t id = 0;
  std::string category;
  int64_t time = 0;
  std::string wkt;

  bool operator==(const EventRecord& o) const {
    return id == o.id && category == o.category && time == o.time &&
           wkt == o.wkt;
  }
};

/// Parses event CSV text (RFC-4180-style quoting; no header row).
Result<std::vector<EventRecord>> ParseEventsCsv(const std::string& text);

/// Reads and parses an event CSV file.
Result<std::vector<EventRecord>> ReadEventsCsv(const std::string& path);

/// Serializes records to CSV text with quoting where needed.
std::string FormatEventsCsv(const std::vector<EventRecord>& records);

/// Writes records to \p path.
Status WriteEventsCsv(const std::string& path,
                      const std::vector<EventRecord>& records);

/// The pre-processing map of the paper's example: each record becomes
/// (STObject(wkt, time), (id, category)).
Result<std::vector<std::pair<STObject, std::pair<int64_t, std::string>>>>
EventsToPairs(const std::vector<EventRecord>& records);

}  // namespace stark

#endif  // STARK_IO_CSV_H_
