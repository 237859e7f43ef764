#include "db/row_layout.h"

#include <string>
#include <utility>

namespace perfeval {
namespace db {

Value RowBlock::ValueAt(size_t r, size_t c) const {
  DataType type = schema().column(c).type;
  if (IsNull(r, c)) {
    return Value::Null(type);
  }
  switch (type) {
    case DataType::kInt64:
      return Value::Int64(Int64At(r, c));
    case DataType::kDouble:
      return Value::Double(DoubleAt(r, c));
    case DataType::kDate:
      return Value::Date(static_cast<int32_t>(Int64At(r, c)));
    case DataType::kString:
      return Value::String(std::string(StringAt(r, c)));
  }
  return Value::Null(type);
}

void RowBlock::SetValue(uint8_t* row, size_t c, const Value& v) {
  if (v.is_null()) {
    SetNull(row, c);
    return;
  }
  switch (v.type()) {
    case DataType::kInt64:
      SetInt64(row, c, v.AsInt64());
      return;
    case DataType::kDouble:
      SetDouble(row, c, v.AsDouble());
      return;
    case DataType::kDate:
      SetInt64(row, c, static_cast<int64_t>(v.AsDate()));
      return;
    case DataType::kString:
      SetString(row, c, v.AsString());
      return;
  }
}

RowBlock PackTable(const Table& table) {
  RowBlock block(RowLayout::For(table.schema()));
  block.ReserveRows(table.num_rows());
  size_t ncols = table.num_columns();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    uint8_t* row = block.AppendRow();
    for (size_t c = 0; c < ncols; ++c) {
      const Column& src = table.column(c);
      if (src.IsNull(r)) {
        block.SetNull(row, c);
        continue;
      }
      switch (src.type()) {
        case DataType::kInt64:
        case DataType::kDate:
          block.SetInt64(row, c, src.GetInt64(r));
          break;
        case DataType::kDouble:
          block.SetDouble(row, c, src.GetDouble(r));
          break;
        case DataType::kString: {
          // SetString may reallocate the heap; re-derive `row` afterwards
          // is unnecessary because the heap and row bytes are distinct
          // vectors — only heap bytes move.
          block.SetString(row, c, src.GetString(r));
          break;
        }
      }
    }
  }
  return block;
}

void UnpackRows(const RowBlock& block, size_t begin, size_t end,
                Table* out) {
  size_t ncols = block.schema().num_columns();
  for (size_t c = 0; c < ncols; ++c) {
    Column& dst = out->column(c);
    DataType type = block.schema().column(c).type;
    for (size_t r = begin; r < end; ++r) {
      if (block.IsNull(r, c)) {
        dst.AppendNull();
        continue;
      }
      switch (type) {
        case DataType::kInt64:
          dst.AppendInt64(block.Int64At(r, c));
          break;
        case DataType::kDate:
          dst.AppendDate(static_cast<int32_t>(block.Int64At(r, c)));
          break;
        case DataType::kDouble:
          dst.AppendDouble(block.DoubleAt(r, c));
          break;
        case DataType::kString:
          dst.AppendString(std::string(block.StringAt(r, c)));
          break;
      }
    }
  }
  out->FinishBulkLoad();
}

std::shared_ptr<Table> UnpackToTable(const RowBlock& block) {
  auto out = std::make_shared<Table>(block.schema());
  out->ReserveRows(block.num_rows());
  UnpackRows(block, 0, block.num_rows(), out.get());
  return out;
}

}  // namespace db
}  // namespace perfeval
