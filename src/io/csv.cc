#include "io/csv.h"

#include <charconv>

#include "common/serde.h"

namespace stark {

namespace {

/// Splits one CSV line into fields, honoring double-quoted fields with
/// doubled-quote escapes. \p line must not contain the trailing newline.
Result<std::vector<std::string>> SplitCsvLine(const std::string& line,
                                              size_t line_no) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (in_quotes) {
    return Status::ParseError("csv: unterminated quote on line " +
                              std::to_string(line_no));
  }
  fields.push_back(std::move(cur));
  return fields;
}

Result<int64_t> ParseInt(const std::string& s, size_t line_no) {
  int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::ParseError("csv: bad integer '" + s + "' on line " +
                              std::to_string(line_no));
  }
  return v;
}

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n") != std::string::npos;
}

void AppendField(std::string* out, const std::string& s) {
  if (!NeedsQuoting(s)) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<std::vector<EventRecord>> ParseEventsCsv(const std::string& text) {
  std::vector<EventRecord> records;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    std::string line = text.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    pos = end + 1;
    if (line.empty()) continue;
    STARK_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                           SplitCsvLine(line, line_no));
    if (fields.size() != 4) {
      return Status::ParseError(
          "csv: expected 4 fields (id, category, time, wkt) on line " +
          std::to_string(line_no) + ", got " +
          std::to_string(fields.size()));
    }
    EventRecord rec;
    STARK_ASSIGN_OR_RETURN(rec.id, ParseInt(fields[0], line_no));
    rec.category = std::move(fields[1]);
    STARK_ASSIGN_OR_RETURN(rec.time, ParseInt(fields[2], line_no));
    rec.wkt = std::move(fields[3]);
    records.push_back(std::move(rec));
  }
  return records;
}

Result<std::vector<EventRecord>> ReadEventsCsv(const std::string& path) {
  STARK_ASSIGN_OR_RETURN(std::vector<char> buf, ReadFileBytes(path));
  return ParseEventsCsv(std::string(buf.begin(), buf.end()));
}

std::string FormatEventsCsv(const std::vector<EventRecord>& records) {
  std::string out;
  for (const EventRecord& rec : records) {
    out.append(std::to_string(rec.id));
    out.push_back(',');
    AppendField(&out, rec.category);
    out.push_back(',');
    out.append(std::to_string(rec.time));
    out.push_back(',');
    AppendField(&out, rec.wkt);
    out.push_back('\n');
  }
  return out;
}

Status WriteEventsCsv(const std::string& path,
                      const std::vector<EventRecord>& records) {
  const std::string text = FormatEventsCsv(records);
  return WriteFileBytes(path, std::vector<char>(text.begin(), text.end()));
}

Result<std::vector<std::pair<STObject, std::pair<int64_t, std::string>>>>
EventsToPairs(const std::vector<EventRecord>& records) {
  std::vector<std::pair<STObject, std::pair<int64_t, std::string>>> out;
  out.reserve(records.size());
  for (const EventRecord& rec : records) {
    STARK_ASSIGN_OR_RETURN(STObject obj,
                           STObject::FromWkt(rec.wkt, rec.time));
    out.emplace_back(std::move(obj),
                     std::make_pair(rec.id, rec.category));
  }
  return out;
}

}  // namespace stark
