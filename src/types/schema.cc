#include "types/schema.h"

#include "common/string_util.h"

namespace insight {

namespace {
// Unqualified trailing component of "r.a" -> "a".
std::string_view Unqualified(std::string_view name) {
  const size_t pos = name.rfind('.');
  return pos == std::string_view::npos ? name : name.substr(pos + 1);
}

// Qualifier of "r.a" -> "r"; empty for an unqualified name.
std::string_view Qualifier(std::string_view name) {
  const size_t pos = name.rfind('.');
  return pos == std::string_view::npos ? std::string_view()
                                        : name.substr(0, pos);
}
}  // namespace

Result<size_t> Schema::IndexOf(const std::string& name) const {
  // Pass 1: exact (case-insensitive) match on the full name.
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  // Pass 2: match the unqualified suffix; must be unambiguous. Two
  // qualified names matched only in pass 1: "v2.id" never names "v1.id".
  const std::string_view qualifier = Qualifier(name);
  size_t found = columns_.size();
  int matches = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const std::string_view column_qualifier = Qualifier(columns_[i].name);
    if (!qualifier.empty() && !column_qualifier.empty()) continue;
    if (EqualsIgnoreCase(Unqualified(columns_[i].name), Unqualified(name))) {
      found = i;
      ++matches;
    }
  }
  if (matches == 1) return found;
  if (matches > 1) {
    return Status::InvalidArgument("ambiguous column name: " + name);
  }
  return Status::NotFound("no column named " + name);
}

Status Schema::AddColumn(Column col) {
  for (const Column& c : columns_) {
    if (EqualsIgnoreCase(c.name, col.name)) {
      return Status::AlreadyExists("duplicate column " + col.name);
    }
  }
  columns_.push_back(std::move(col));
  return Status::OK();
}

Schema Schema::Project(const std::vector<size_t>& indices) const {
  std::vector<Column> cols;
  cols.reserve(indices.size());
  for (size_t i : indices) cols.push_back(columns_[i]);
  return Schema(std::move(cols));
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += ValueTypeToString(columns_[i].type);
  }
  out += ")";
  return out;
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace insight
